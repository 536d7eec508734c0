/**
 * @file
 * Property-based tests: randomized operation sequences checked against
 * reference models and global invariants, swept over configurations
 * with parameterized gtest.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "core/mmu.hh"
#include "vm/kernel.hh"
#include "workloads/ycsb.hh"

using namespace bf;
using namespace bf::vm;

namespace
{

constexpr Addr kVa = 0x7f00'0000'0000ull;

KernelParams
kparams(bool babelfish)
{
    KernelParams p;
    p.babelfish = babelfish;
    p.aslr = AslrMode::Sw;
    p.mem_frames = 1 << 22;
    return p;
}

/**
 * Reference model of what each process must observe: va -> expected
 * frame, where CoW divergence updates the expectation for the writer
 * only.
 */
struct RefModel
{
    std::map<Pid, std::map<Addr, Ppn>> view;
};

} // namespace

// ---------------------------------------------------------------------
// Random fault sequences preserve per-process translation correctness.
// ---------------------------------------------------------------------

/**
 * gtest prints a parameter it cannot format as its raw bytes, and those
 * bytes become part of the test name. The padding after babelfish is
 * spelled out and zeroed so that the names do not pick up whatever the
 * stack held when the parameter list was built.
 */
struct SweepConfig
{
    SweepConfig(bool babelfish, unsigned processes, std::uint64_t seed)
        : babelfish(babelfish), processes(processes), seed(seed)
    {}

    bool babelfish;
    std::uint8_t pad[3] = {};
    unsigned processes;
    std::uint64_t seed;
};
static_assert(sizeof(SweepConfig) == 16, "SweepConfig has implicit padding");

class FaultSweep : public ::testing::TestWithParam<SweepConfig>
{};

TEST_P(FaultSweep, TranslationsAlwaysCorrect)
{
    const auto cfg = GetParam();
    Kernel kernel(kparams(cfg.babelfish));
    const Ccid g = kernel.createGroup("g", 1);
    MappedObject *file = kernel.createFile("f", 32 << 20);
    file->preload(kernel.frames());

    std::vector<Process *> procs;
    for (unsigned i = 0; i < cfg.processes; ++i) {
        Process *p = kernel.createProcess(
            g, std::string("p").append(std::to_string(i)));
        kernel.mmapObject(*p, file, kVa, 32 << 20, 0, /*writable=*/true,
                          false, /*shared=*/false);
        procs.push_back(p);
    }

    RefModel ref;
    Rng rng(cfg.seed);
    const unsigned pages = 512; // within one 2 MB region and beyond
    bool dummy = false;

    for (int step = 0; step < 4000; ++step) {
        Process *p = procs[rng.below(procs.size())];
        const Addr va = kVa + rng.below(pages) * basePageBytes;
        const bool write = rng.chance(0.3);

        const auto out = kernel.handleFault(
            *p, va, write ? AccessType::Write : AccessType::Read);
        ASSERT_NE(out.kind, FaultKind::Protection);

        // Update the reference: a write means this process now has a
        // private frame (first write) or keeps its existing one.
        auto &view = ref.view[p->pid()];
        if (write) {
            // Read back what the kernel installed; it must differ from
            // the pristine object frame only on writes, and must be
            // stable for this process afterwards.
            Ppn installed = 0;
            kernel.forEachTranslation(
                *p, [&](Addr tva, const Entry &e, PageSize) {
                    if (tva == va)
                        installed = e.frame();
                });
            ASSERT_NE(installed, 0u);
            auto it = view.find(va);
            if (it != view.end() && it->second != 0) {
                ASSERT_EQ(installed, it->second)
                    << "written frame changed under process";
            }
            view[va] = installed;
        }

        // Global check every 500 steps: every expectation holds, and
        // non-written pages still map the object frame.
        if (step % 500 != 499)
            continue;
        for (Process *q : procs) {
            const auto &qview = ref.view[q->pid()];
            kernel.forEachTranslation(
                *q, [&](Addr tva, const Entry &e, PageSize) {
                    auto it = qview.find(tva);
                    if (it != qview.end()) {
                        ASSERT_EQ(e.frame(), it->second)
                            << "pid " << q->pid() << " va " << std::hex
                            << tva;
                    } else {
                        const std::uint64_t page =
                            (tva - kVa) / basePageBytes;
                        ASSERT_EQ(e.frame(),
                                  file->frameFor(page, kernel.frames(),
                                                 dummy))
                            << "clean page diverged: pid " << q->pid();
                    }
                });
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultSweep,
    ::testing::Values(SweepConfig{false, 2, 1}, SweepConfig{false, 4, 2},
                      SweepConfig{true, 2, 3}, SweepConfig{true, 4, 4},
                      SweepConfig{true, 8, 5}, SweepConfig{true, 33, 6},
                      SweepConfig{true, 40, 7}));

// ---------------------------------------------------------------------
// Sharer-counter invariant: the recorded sharer count of every shared
// table equals the number of upper entries pointing at it.
// ---------------------------------------------------------------------

class SharerInvariant : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SharerInvariant, CountsMatchPointers)
{
    Kernel kernel(kparams(true));
    const Ccid g = kernel.createGroup("g", 1);
    MappedObject *file = kernel.createFile("f", 32 << 20);
    file->preload(kernel.frames());

    std::vector<Process *> procs;
    for (unsigned i = 0; i < 6; ++i) {
        Process *p = kernel.createProcess(
            g, std::string("p").append(std::to_string(i)));
        kernel.mmapObject(*p, file, kVa, 32 << 20, 0, true, false, false);
        procs.push_back(p);
    }

    Rng rng(GetParam());
    for (int step = 0; step < 3000; ++step) {
        Process *p = procs[rng.below(procs.size())];
        const Addr va = kVa + rng.below(4096) * basePageBytes;
        kernel.handleFault(*p, va,
                           rng.chance(0.25) ? AccessType::Write
                                            : AccessType::Read);
    }

    // Count pointers to each group-shared leaf table.
    std::map<Ppn, unsigned> pointers;
    for (Process *p : procs) {
        PageTablePage *pud =
            kernel.tableByFrame(p->pgd()->entryFor(kVa).frame());
        if (!pud)
            continue;
        PageTablePage *pmd =
            kernel.tableByFrame(pud->entryFor(kVa).frame());
        if (!pmd)
            continue;
        for (unsigned i = 0; i < entriesPerTable; ++i) {
            const Entry &e = pmd->entry(i);
            if (!e.present() || e.huge())
                continue;
            PageTablePage *leaf = kernel.tableByFrame(e.frame());
            if (leaf && leaf->group_shared)
                ++pointers[leaf->frame()];
        }
    }
    for (const auto &[frame, count] : pointers) {
        PageTablePage *table = kernel.tableByFrame(frame);
        ASSERT_NE(table, nullptr);
        EXPECT_EQ(table->sharers, count) << "table frame " << frame;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharerInvariant,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------
// O-PC invariant: after any CoW history, a process whose PC-bitmask bit
// is set for a region has a private table there, and other processes'
// shared view is intact.
// ---------------------------------------------------------------------

TEST(OpcInvariant, BitSetImpliesOwnedTable)
{
    Kernel kernel(kparams(true));
    const Ccid g = kernel.createGroup("g", 1);
    MappedObject *file = kernel.createFile("f", 32 << 20);
    file->preload(kernel.frames());
    std::vector<Process *> procs;
    for (unsigned i = 0; i < 8; ++i) {
        Process *p = kernel.createProcess(
            g, std::string("p").append(std::to_string(i)));
        kernel.mmapObject(*p, file, kVa, 32 << 20, 0, true, false, false);
        procs.push_back(p);
    }

    Rng rng(99);
    for (int step = 0; step < 2000; ++step) {
        Process *p = procs[rng.below(procs.size())];
        const Addr va = kVa + rng.below(2048) * basePageBytes;
        kernel.handleFault(*p, va,
                           rng.chance(0.4) ? AccessType::Write
                                           : AccessType::Read);
    }

    for (Process *p : procs) {
        for (unsigned region = 0; region < 4; ++region) {
            const Addr va = kVa + region * (2ull << 20);
            MaskPage *mask = kernel.maskFor(g, va);
            if (!mask)
                continue;
            const int bit = mask->bitFor(p->pid());
            if (bit < 0)
                continue;
            if (!(mask->bitmaskFor(va) >> bit & 1))
                continue;
            // This process privatized this 2 MB region: its pmd entry
            // must be owned and point at a non-shared table.
            PageTablePage *pud =
                kernel.tableByFrame(p->pgd()->entryFor(va).frame());
            ASSERT_NE(pud, nullptr);
            PageTablePage *pmd =
                kernel.tableByFrame(pud->entryFor(va).frame());
            ASSERT_NE(pmd, nullptr);
            const Entry &e = pmd->entryFor(va);
            ASSERT_TRUE(e.present());
            EXPECT_TRUE(e.owned());
            PageTablePage *leaf = kernel.tableByFrame(e.frame());
            ASSERT_NE(leaf, nullptr);
            EXPECT_FALSE(leaf->group_shared);
        }
    }
}

// ---------------------------------------------------------------------
// TLB coherence property under random traffic with shootdowns: what the
// MMU returns always matches what the page tables say at that moment.
// ---------------------------------------------------------------------

class TlbCoherence : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(TlbCoherence, MmuMatchesTables)
{
    core::SystemParams sp = core::SystemParams::babelfish();
    sp.kernel.mem_frames = 1 << 22;
    sp.mmu.aslr = sp.kernel.aslr;

    stats::StatGroup root("root");
    Kernel kernel(sp.kernel);
    mem::CacheHierarchy mem(sp.mem, 2);
    core::Mmu mmu0(0, sp.mmu, mem, kernel);
    core::Mmu mmu1(1, sp.mmu, mem, kernel);
    kernel.setTlbInvalidateHook([&](const TlbInvalidate &inv) {
        mmu0.applyInvalidate(inv);
        mmu1.applyInvalidate(inv);
    });

    const Ccid g = kernel.createGroup("g", 1);
    MappedObject *file = kernel.createFile("f", 16 << 20);
    file->preload(kernel.frames());
    std::vector<Process *> procs;
    for (unsigned i = 0; i < 3; ++i) {
        Process *p = kernel.createProcess(
            g, std::string("p").append(std::to_string(i)));
        kernel.mmapObject(*p, file, kVa, 16 << 20, 0, true, false, false);
        procs.push_back(p);
    }

    Rng rng(GetParam());
    Cycles now = 0;
    bool dummy = false;
    // Reference model: a process observes its private frame once it has
    // written a page, and the pristine object frame otherwise. (A
    // process may legitimately translate through a shared TLB entry
    // without its own page tables ever being touched — the paper's
    // container C in Fig. 7 — so the tables alone are not the oracle.)
    std::map<Pid, std::map<Addr, Ppn>> written;

    for (int step = 0; step < 6000; ++step) {
        Process *p = procs[rng.below(procs.size())];
        core::Mmu &mmu = rng.chance(0.5) ? mmu0 : mmu1;
        const Addr page_va = kVa + rng.below(1024) * basePageBytes;
        const Addr va = page_va + rng.below(64) * 64;
        const bool write = rng.chance(0.25);
        const auto t = mmu.translate(
            *p, va, write ? AccessType::Write : AccessType::Read, now);
        now += t.cycles + 10;

        const Ppn got = t.paddr / basePageBytes;
        auto &view = written[p->pid()];
        const auto it = view.find(page_va);
        if (write) {
            // Writes always land on the process' private frame; the
            // first write fixes it forever.
            const Ppn object_frame = file->frameFor(
                (page_va - kVa) / basePageBytes, kernel.frames(), dummy);
            ASSERT_NE(got, object_frame)
                << "write hit the shared frame: step " << step;
            if (it != view.end()) {
                ASSERT_EQ(got, it->second)
                    << "written frame changed: step " << step << " pid "
                    << p->pid();
            }
            view[page_va] = got;
        } else if (it != view.end()) {
            ASSERT_EQ(got, it->second)
                << "read after write saw wrong frame: step " << step
                << " pid " << p->pid() << " va " << std::hex << va;
        } else {
            const Ppn object_frame = file->frameFor(
                (page_va - kVa) / basePageBytes, kernel.frames(), dummy);
            ASSERT_EQ(got, object_frame)
                << "clean read diverged: step " << step << " pid "
                << p->pid() << " va " << std::hex << va;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbCoherence,
                         ::testing::Values(101, 202, 303));

// ---------------------------------------------------------------------
// TLB reference-model property: under random fills, lookups
// (conventional or BabelFish) and every shootdown kind, the TLB agrees
// with an exact associative reference (modulo capacity, which the
// reference replicates via LRU). The reference restates the paper's
// reach rules as address-range overlap, independently of
// tlb::shotDownBy.
// ---------------------------------------------------------------------

namespace
{

/** Exact per-set LRU reference of one TLB structure. */
struct RefTlb
{
    struct Line
    {
        Vpn vpn;
        Pcid pcid;
        Ccid ccid;
        bool owned;
        bool orpc;
        std::uint32_t pc_bitmask;
        Ppn ppn;
    };
    unsigned sets;
    unsigned assoc;
    PageSize size;
    std::vector<std::vector<Line>> order; // MRU at back
    std::uint64_t dropped = 0;

    RefTlb(unsigned entries, unsigned assoc_, PageSize size_)
        : sets(entries / assoc_), assoc(assoc_), size(size_), order(sets)
    {}

    std::vector<Line> &setOf(Vpn vpn) { return order[vpn % sets]; }

    /** Move the line at @p it to MRU and return it. */
    const Line *
    touch(std::vector<Line> &set, std::vector<Line>::iterator it)
    {
        const Line line = *it;
        set.erase(it);
        set.push_back(line);
        return &set.back();
    }

    const Line *
    lookup(Vpn vpn, Pcid pcid)
    {
        auto &set = setOf(vpn);
        for (auto it = set.begin(); it != set.end(); ++it)
            if (it->vpn == vpn && it->pcid == pcid)
                return touch(set, it);
        return nullptr;
    }

    /**
     * Paper Fig. 8: the process' owned entry, else the group's shared
     * entry unless its PC bitmask names the process.
     */
    const Line *
    lookupBabelFish(Vpn vpn, Ccid ccid, Pcid pcid, int process_bit)
    {
        auto &set = setOf(vpn);
        auto shared = set.end();
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->vpn != vpn || it->ccid != ccid)
                continue;
            if (it->owned && it->pcid == pcid)
                return touch(set, it);
            if (!it->owned &&
                !(it->orpc && process_bit >= 0 &&
                  (it->pc_bitmask >> process_bit) & 1u))
                shared = it;
        }
        return shared == set.end() ? nullptr : touch(set, shared);
    }

    /** Shared lines are one per {VPN, CCID} when @p dedup. */
    void
    fill(const Line &line, bool dedup)
    {
        auto &set = setOf(line.vpn);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->vpn == line.vpn && it->ccid == line.ccid &&
                it->owned == line.owned &&
                ((dedup && !line.owned) || it->pcid == line.pcid)) {
                set.erase(it);
                break;
            }
        }
        if (set.size() >= assoc)
            set.erase(set.begin());
        set.push_back(line);
    }

    /** Whether two runs of pages, as byte ranges, overlap. */
    static bool
    overlaps(Vpn a, std::uint64_t a_pages, PageSize a_size, Vpn b,
             std::uint64_t b_pages, PageSize b_size)
    {
        const Addr a_first = a * pageBytes(a_size);
        const Addr a_end = (a + a_pages) * pageBytes(a_size);
        const Addr b_first = b * pageBytes(b_size);
        const Addr b_end = (b + b_pages) * pageBytes(b_size);
        return a_first < b_end && b_first < a_end;
    }

    bool
    reaches(const Line &line, const vm::TlbInvalidate &inv) const
    {
        switch (inv.kind) {
          case vm::TlbInvalidate::Kind::Page:
            return inv.size == size && line.vpn == inv.vpn &&
                   line.pcid == inv.pcid;
          case vm::TlbInvalidate::Kind::Pcid:
            return line.pcid == inv.pcid;
          case vm::TlbInvalidate::Kind::SharedRange:
            // Same-size ranges, and 4K-expressed region ranges that also
            // cover the huge pages they overlap (paper §III-A).
            return !line.owned && line.ccid == inv.ccid &&
                   (inv.size == size || inv.size == PageSize::Size4K) &&
                   overlaps(line.vpn, 1, size, inv.vpn, inv.num_pages,
                            inv.size);
        }
        return false;
    }

    void
    invalidate(const vm::TlbInvalidate &inv)
    {
        for (auto &set : order) {
            const std::size_t before = set.size();
            std::erase_if(set, [&](const Line &l) {
                return reaches(l, inv);
            });
            dropped += before - set.size();
        }
    }

    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (const auto &set : order)
            n += set.size();
        return n;
    }
};

} // namespace

class TlbReference : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(TlbReference, AgreesUnderRandomTraffic)
{
    using Kind = vm::TlbInvalidate::Kind;
    struct Geometry
    {
        unsigned entries;
        unsigned assoc; //!< 0: fully associative.
    };
    // 16 sets, 12 sets (the modulo set index), one set.
    for (const Geometry g : {Geometry{64, 4}, Geometry{48, 4},
                             Geometry{32, 0}})
    for (const PageSize size : {PageSize::Size4K, PageSize::Size2M})
    for (const bool babelfish : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << g.entries << "/" << g.assoc << " size "
                     << static_cast<int>(size) << " babelfish "
                     << babelfish);
        tlb::TlbParams params;
        params.entries = g.entries;
        params.assoc = g.assoc;
        params.page_size = size;
        tlb::Tlb tlb(params);
        RefTlb ref(g.entries, g.assoc ? g.assoc : g.entries, size);

        Rng rng(GetParam());
        for (int step = 0; step < 30000; ++step) {
            const Vpn vpn = rng.below(256);
            const Pcid pcid = 1 + static_cast<Pcid>(rng.below(4));
            // Two processes per container.
            const Ccid ccid = static_cast<Ccid>(1 + (pcid - 1) / 2);
            const double dice = rng.uniform();
            if (dice < 0.5) {
                const int process_bit =
                    static_cast<int>(rng.below(5)) - 1;
                const auto got =
                    babelfish
                        ? tlb.lookupBabelFish(vpn, ccid, pcid, process_bit)
                        : tlb.lookupConventional(vpn, pcid);
                const auto *expect =
                    babelfish
                        ? ref.lookupBabelFish(vpn, ccid, pcid, process_bit)
                        : ref.lookup(vpn, pcid);
                ASSERT_EQ(got.hit(), expect != nullptr)
                    << "step " << step << " vpn " << vpn;
                if (expect) {
                    ASSERT_EQ(got.entry->ppn, expect->ppn)
                        << "step " << step;
                    ASSERT_EQ(got.shared_hit, expect->pcid != pcid)
                        << "step " << step;
                }
            } else if (dice < 0.85) {
                // Conventional mode: one entry per {VPN, PCID}, so
                // Ownership is a function of both.
                RefTlb::Line line{vpn, pcid, ccid,
                                  babelfish ? rng.below(2) == 0
                                            : ((vpn + pcid) & 1) != 0,
                                  false, 0, rng.below(1 << 20)};
                if (babelfish && !line.owned && rng.below(3) == 0) {
                    line.orpc = true;
                    line.pc_bitmask =
                        static_cast<std::uint32_t>(rng.below(16));
                }
                tlb::TlbEntry entry;
                entry.vpn = vpn;
                entry.ppn = line.ppn;
                entry.size = size;
                entry.pcid = pcid;
                entry.fill_pcid = pcid;
                entry.ccid = ccid;
                entry.owned = line.owned;
                entry.orpc = line.orpc;
                entry.pc_bitmask = line.pc_bitmask;
                tlb.fill(entry, babelfish);
                ref.fill(line, babelfish);
            } else {
                vm::TlbInvalidate inv;
                inv.pcid = pcid;
                inv.ccid = ccid;
                inv.vpn = vpn;
                inv.size = rng.below(2) == 0 ? PageSize::Size4K
                                             : PageSize::Size2M;
                if (dice < 0.93) {
                    inv.kind = Kind::Page;
                } else if (dice < 0.985) {
                    inv.kind = Kind::SharedRange;
                    if (inv.size != size) {
                        // A 4K range against the 2M structure may
                        // straddle 2M pages; a 2M range reaches no 4K
                        // structure.
                        inv.vpn = rng.below(256 << 9);
                        inv.num_pages = 1 + rng.below(1024);
                    } else {
                        inv.num_pages = 1 + rng.below(16);
                    }
                } else {
                    inv.kind = Kind::Pcid;
                }
                tlb.invalidate(inv);
                ref.invalidate(inv);
                ASSERT_EQ(tlb.validCount(), ref.count())
                    << "step " << step;
            }
        }
        EXPECT_EQ(tlb.invalidations.value(), ref.dropped);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbReference,
                         ::testing::Values(7, 77, 777));

// ---------------------------------------------------------------------
// Zipf generator at large N (the zeta-function integral approximation
// kicks in above 10000 items): bounds and skew must still hold.
// ---------------------------------------------------------------------

TEST(ZipfLargeN, ApproximationBoundedAndSkewed)
{
    Rng rng(13);
    workloads::ZipfianGenerator zipf(200000, 0.99);
    std::uint64_t head = 0, max_seen = 0;
    for (int i = 0; i < 50000; ++i) {
        const auto v = zipf.next(rng);
        ASSERT_LT(v, 200000u);
        head += v < 2000; // top 1%
        max_seen = std::max(max_seen, v);
    }
    EXPECT_GT(head, 50000u * 0.3); // strong head concentration
    EXPECT_GT(max_seen, 50000u);   // the tail is actually reachable
}
