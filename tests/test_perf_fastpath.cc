/**
 * @file
 * Tests for the host-side fast paths of the translate/memory pipeline.
 * Every optimization here must be invisible to the modeled machine, so
 * these tests pin the equivalences: the cached processBit answer must
 * track mask mutations (generation counter), accessAndFill must behave
 * exactly like access()+insert(), non-power-of-two TLB set selection
 * must still be the modulo, and validCount's counter must match a scan.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/mmu.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "tlb/tlb.hh"
#include "vm/kernel.hh"

using namespace bf;
using Kind = vm::TlbInvalidate::Kind;

namespace
{

constexpr Addr kVa = 0x7f00'0000'0000ull;

vm::KernelParams
kernelParams()
{
    vm::KernelParams p;
    p.babelfish = true;
    p.aslr = vm::AslrMode::Sw;
    p.mem_frames = 1 << 22;
    return p;
}

/** Two processes of one group privately mapping the same file. */
struct KernelFixture
{
    vm::Kernel kernel;
    Ccid ccid;
    vm::Process *a;
    vm::Process *b;

    explicit KernelFixture(vm::KernelParams p = kernelParams())
        : kernel(p)
    {
        ccid = kernel.createGroup("g", 1);
        a = kernel.createProcess(ccid, "a");
        b = kernel.createProcess(ccid, "b");
        vm::MappedObject *file = kernel.createFile("f", 64 << 20);
        file->preload(kernel.frames());
        kernel.mmapObject(*a, file, kVa, 64 << 20, 0, true, false, false);
        kernel.mmapObject(*b, file, kVa, 64 << 20, 0, true, false, false);
    }
};

/** KernelFixture plus one MMU wired to the shootdown hook. */
struct MmuFixture : KernelFixture
{
    mem::CacheHierarchy hierarchy;
    core::Mmu mmu;

    explicit MmuFixture(core::SystemParams p = core::SystemParams::babelfish())
        : KernelFixture([&] {
              auto kp = p.kernel;
              kp.mem_frames = 1 << 22;
              return kp;
          }()),
          hierarchy(p.mem, 1),
          mmu(0, [&] { auto m = p.mmu; m.aslr = p.kernel.aslr;
                       return m; }(), hierarchy, kernel)
    {
        kernel.setTlbInvalidateHook([this](const vm::TlbInvalidate &inv) {
            mmu.applyInvalidate(inv);
        });
    }
};

tlb::TlbEntry
tlbEntry(Vpn vpn, Ppn ppn, Pcid pcid, Ccid ccid)
{
    tlb::TlbEntry e;
    e.valid = true;
    e.vpn = vpn;
    e.ppn = ppn;
    e.pcid = pcid;
    e.fill_pcid = pcid;
    e.ccid = ccid;
    return e;
}

} // namespace

// ---------------------------------------------------------------------------
// Process::bitIn / setBitIn on the sorted-vector index.

TEST(ProcessBits, SortedVectorIndexBehavesLikeMap)
{
    vm::Process p(1, 1, 1, "t", nullptr);
    EXPECT_FALSE(p.hasMaskBits());
    EXPECT_EQ(p.bitIn(0), -1);
    EXPECT_EQ(p.bitIn(0x4000'0000ull), -1);

    // Insert out of order; lookups must see a consistent sorted index.
    p.setBitIn(0x8000'0000ull, 3);
    p.setBitIn(0x4000'0000ull, 1);
    p.setBitIn(0xc000'0000ull, 7);
    EXPECT_TRUE(p.hasMaskBits());
    EXPECT_EQ(p.bitIn(0x4000'0000ull), 1);
    EXPECT_EQ(p.bitIn(0x8000'0000ull), 3);
    EXPECT_EQ(p.bitIn(0xc000'0000ull), 7);
    EXPECT_EQ(p.bitIn(0x6000'0000ull), -1);

    // Overwrite keeps one entry per region.
    p.setBitIn(0x8000'0000ull, 4);
    EXPECT_EQ(p.bitIn(0x8000'0000ull), 4);
}

TEST(ProcessBits, FastPathForMaskFreeProcess)
{
    // The no-private-copies fast path: a process that never CoW'ed has
    // no mask bits, and processBit answers -1 from the flag alone —
    // there is no per-region container lookup (mask_bits_ is a plain
    // sorted vector now, so no std::map is involved at all).
    KernelFixture f;
    EXPECT_FALSE(f.a->hasMaskBits());
    EXPECT_EQ(f.kernel.processBit(*f.a, kVa), -1);
    EXPECT_EQ(f.kernel.processBit(*f.a, kVa + (1ull << 30)), -1);
    EXPECT_EQ(f.kernel.processBit(*f.a, 0), -1);
}

TEST(ProcessBits, AssignedAfterPrivatization)
{
    KernelFixture f;
    f.kernel.handleFault(*f.a, kVa, AccessType::Read);
    f.kernel.handleFault(*f.b, kVa, AccessType::Read);
    f.kernel.handleFault(*f.b, kVa, AccessType::Write);

    EXPECT_TRUE(f.b->hasMaskBits());
    EXPECT_EQ(f.kernel.processBit(*f.b, kVa), 0);
    // Same 1 GB mask region, different page: same answer.
    EXPECT_EQ(f.kernel.processBit(*f.b, kVa + 0x1000), 0);
    // Different region: no bit. (kVa is 512 GB-aligned, so a VA one
    // 1 GB over still probes kVa at the PMD level — step a full 1 TB
    // to leave every candidate region.)
    EXPECT_EQ(f.kernel.processBit(*f.b, kVa + (1ull << 40)), -1);
    // The non-writer is unaffected.
    EXPECT_FALSE(f.a->hasMaskBits());
    EXPECT_EQ(f.kernel.processBit(*f.a, kVa), -1);
}

// ---------------------------------------------------------------------------
// The mask-generation counter that keys the MMU's processBit cache.

TEST(MaskGeneration, PointerIsStableAndPerGroup)
{
    KernelFixture f;
    const std::uint64_t *gen = f.kernel.maskGenerationPtr(f.ccid);
    ASSERT_NE(gen, nullptr);
    EXPECT_EQ(f.kernel.maskGenerationPtr(999), nullptr);
    EXPECT_EQ(gen, f.kernel.maskGenerationPtr(f.ccid));
}

TEST(MaskGeneration, BumpsOnCowPrivatization)
{
    KernelFixture f;
    const std::uint64_t *gen = f.kernel.maskGenerationPtr(f.ccid);
    f.kernel.handleFault(*f.a, kVa, AccessType::Read);
    f.kernel.handleFault(*f.b, kVa, AccessType::Read);
    const std::uint64_t before = *gen;
    f.kernel.handleFault(*f.b, kVa, AccessType::Write);
    EXPECT_GT(*gen, before);
    EXPECT_EQ(f.kernel.cow_privatizations.value(), 1u);
}

TEST(MaskGeneration, BumpsOnExitProcess)
{
    KernelFixture f;
    const std::uint64_t *gen = f.kernel.maskGenerationPtr(f.ccid);
    f.kernel.handleFault(*f.a, kVa, AccessType::Read);
    const std::uint64_t before = *gen;
    f.kernel.exitProcess(*f.a);
    EXPECT_GT(*gen, before);
}

TEST(MaskGeneration, BumpsOnFallbackRevert)
{
    // max_cow_writers = 0 models the no-PC-bitmask design: the first
    // CoW write immediately reverts the whole mask region.
    auto p = kernelParams();
    p.max_cow_writers = 0;
    KernelFixture f(p);
    const std::uint64_t *gen = f.kernel.maskGenerationPtr(f.ccid);
    f.kernel.handleFault(*f.a, kVa, AccessType::Read);
    f.kernel.handleFault(*f.b, kVa, AccessType::Read);
    const std::uint64_t before = *gen;
    f.kernel.handleFault(*f.b, kVa, AccessType::Write);
    EXPECT_EQ(f.kernel.mask_fallbacks.value(), 1u);
    EXPECT_GT(*gen, before);
}

TEST(MaskGeneration, MmuCacheDoesNotGoStaleAcrossPrivatization)
{
    // The hazard the generation counter exists for: the MMU translates
    // for b in a region (caching process_bit = -1), b then privatizes
    // there, and a refills a shared entry whose PC bitmask names b.
    // b's next translate in the region must re-query (bit 0), skip the
    // shared entry, and take a fresh page walk — a stale cached -1
    // would wrongly hit a's shared entry.
    MmuFixture f;
    f.kernel.handleFault(*f.a, kVa, AccessType::Read);
    f.kernel.handleFault(*f.a, kVa + 0x1000, AccessType::Read);

    // Prime the MMU's cache for {b, region} with -1.
    f.mmu.translate(*f.b, kVa, AccessType::Read, 0);
    // b writes through the MMU: CoW privatization, bit 0 assigned.
    f.mmu.translate(*f.b, kVa, AccessType::Write, 100);
    EXPECT_EQ(f.kernel.processBit(*f.b, kVa), 0);

    // a refills the neighbouring page's shared entry; the walk fetches
    // the PC bitmask (ORPC is set after the privatization), so the TLB
    // entry carries b's bit.
    f.mmu.translate(*f.a, kVa + 0x1000, AccessType::Read, 200);

    const auto walks_before = f.mmu.walker().walks.value();
    const auto shared_before = f.mmu.l2_data_shared_hits.value();
    const auto t = f.mmu.translate(*f.b, kVa + 0x1000,
                                   AccessType::Read, 300);
    EXPECT_FALSE(t.faulted);
    // Fresh walk, no shared hit: the invalidated cache answered 0.
    EXPECT_EQ(f.mmu.walker().walks.value(), walks_before + 1);
    EXPECT_EQ(f.mmu.l2_data_shared_hits.value(), shared_before);
}

// ---------------------------------------------------------------------------
// The L0 inline translation cache in front of the L1 TLBs (mmu.hh).
// An L0 hit must be indistinguishable from the 1-cycle L1 hit it
// short-circuits, and every coherence event — shootdown, CoW
// privatization, mask-bit change — must drop the fast path.

TEST(L0InlineCache, RepeatHitIsOneCycleAndFoldsIntoL1Stats)
{
    MmuFixture f;
    f.mmu.translate(*f.a, kVa, AccessType::Read, 0); // fault + fill
    // Slow-path L1 hit: installs the L0 slot.
    const auto t1 = f.mmu.translate(*f.a, kVa, AccessType::Read, 100);
    const auto hits_before = f.mmu.l1_hits.value();
    const auto misses_before = f.mmu.l1_misses.value();
    // L0 hit: same cycles, same paddr, same counters as an L1 hit.
    const auto t2 = f.mmu.translate(*f.a, kVa, AccessType::Read, 200);
    EXPECT_EQ(t2.cycles, 1u);
    EXPECT_EQ(t2.paddr, t1.paddr);
    EXPECT_EQ(f.mmu.l1_hits.value(), hits_before + 1);
    EXPECT_EQ(f.mmu.l1_misses.value(), misses_before);
}

TEST(L0InlineCache, ShootdownDropsTheFastPath)
{
    MmuFixture f;
    f.mmu.translate(*f.a, kVa, AccessType::Read, 0);
    f.mmu.translate(*f.a, kVa, AccessType::Read, 100); // L0 warm
    const auto walks_before = f.mmu.walker().walks.value();
    f.mmu.applyInvalidate({vm::TlbInvalidate::Kind::Page, f.a->ccid(),
                           f.a->pcid(), kVa >> 12, 1, PageSize::Size4K});
    // The invalidated page must take a fresh walk — a stale L0 hit
    // would answer in 1 cycle without one.
    const auto t = f.mmu.translate(*f.a, kVa, AccessType::Read, 200);
    EXPECT_FALSE(t.faulted);
    EXPECT_GT(t.cycles, 1u);
    EXPECT_EQ(f.mmu.walker().walks.value(), walks_before + 1);
}

TEST(L0InlineCache, CowPrivatizationInvalidatesStaleTranslation)
{
    MmuFixture f;
    // Both processes read the shared page; b's repeats come from L0.
    f.mmu.translate(*f.a, kVa, AccessType::Read, 0);
    f.mmu.translate(*f.b, kVa, AccessType::Read, 100);
    const Addr shared_pa =
        f.mmu.translate(*f.b, kVa, AccessType::Read, 200).paddr;
    // b CoW-writes: privatization assigns b's mask bit and shoots the
    // stale mapping down. b's next read must see the private frame,
    // never the L0's remembered shared one.
    f.mmu.translate(*f.b, kVa, AccessType::Write, 300);
    EXPECT_EQ(f.kernel.cow_privatizations.value(), 1u);
    EXPECT_EQ(f.kernel.processBit(*f.b, kVa), 0);
    const auto t = f.mmu.translate(*f.b, kVa, AccessType::Read, 400);
    EXPECT_NE(t.paddr, shared_pa);
}

TEST(L0InlineCache, StatsEquivalentWithL0Disabled)
{
    // The architectural-identity pin: one scripted sequence covering
    // repeat hits, cross-process sharing, a CoW privatization (which
    // changes b's mask bit mid-stream) and an explicit shared-range
    // shootdown, run with the L0 enabled and disabled
    // (MmuParams::l0_cache). Every counter and every returned
    // latency/paddr must match exactly.
    struct Probe
    {
        std::uint64_t l1_hits, l1_misses, l2_hits, l2_misses, walks;
        std::uint64_t cow, minor, sig;
        bool operator==(const Probe &o) const
        {
            return l1_hits == o.l1_hits && l1_misses == o.l1_misses &&
                   l2_hits == o.l2_hits && l2_misses == o.l2_misses &&
                   walks == o.walks && cow == o.cow && minor == o.minor &&
                   sig == o.sig;
        }
    };
    const auto run = [](bool no_l0) {
        core::SystemParams params = core::SystemParams::babelfish();
        params.mmu.l0_cache = !no_l0;
        MmuFixture f(params);
        std::uint64_t sig = 0;
        Cycles now = 0;
        const auto touch = [&](vm::Process &p, Addr va, AccessType ty) {
            const auto t = f.mmu.translate(p, va, ty, now += 50);
            sig = sig * 1315423911ull + t.paddr + t.cycles * 7 +
                  (t.faulted ? 3 : 0);
        };
        for (int rep = 0; rep < 3; ++rep) {
            for (int i = 0; i < 16; ++i) {
                touch(*f.a, kVa + i * 4096, AccessType::Read);
                touch(*f.b, kVa + i * 4096, AccessType::Read);
            }
        }
        touch(*f.b, kVa, AccessType::Write); // privatize + mask bit
        for (int i = 0; i < 16; ++i) {
            touch(*f.a, kVa + i * 4096, AccessType::Read);
            touch(*f.b, kVa + i * 4096, AccessType::Read);
        }
        f.mmu.applyInvalidate({vm::TlbInvalidate::Kind::SharedRange,
                               f.a->ccid(), 0, kVa >> 12, 16,
                               PageSize::Size4K});
        for (int i = 0; i < 16; ++i) {
            touch(*f.a, kVa + i * 4096, AccessType::Read);
            touch(*f.b, kVa + i * 4096, AccessType::Read);
        }
        return Probe{f.mmu.l1_hits.value(), f.mmu.l1_misses.value(),
                     f.mmu.l2_data_hits.value(),
                     f.mmu.l2_data_misses.value(),
                     f.mmu.walker().walks.value(),
                     f.mmu.cow_faults.value(), f.mmu.minor_faults.value(),
                     sig};
    };
    EXPECT_TRUE(run(false) == run(true));
}

// ---------------------------------------------------------------------------
// Cache::accessAndFill edge cases (the full equivalence with the
// Line-struct reference model is CacheReference in test_cache.cc).

TEST(AccessAndFill, HitDoesNotReportEviction)
{
    mem::CacheParams p;
    p.name = "hit";
    p.size_bytes = 4 * 1024;
    p.assoc = 4;
    p.line_bytes = 64;
    mem::Cache cache(p);

    bool dirty = true; // must be overwritten to false
    EXPECT_FALSE(cache.accessAndFill(0x1000, true, dirty));
    EXPECT_FALSE(dirty); // filled into an invalid way
    dirty = true;
    EXPECT_TRUE(cache.accessAndFill(0x1000, false, dirty));
    EXPECT_FALSE(dirty);
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(cache.misses.value(), 1u);
    EXPECT_EQ(cache.evictions.value(), 0u);
}

TEST(AccessAndFill, DirtyVictimReportsWriteback)
{
    // Direct-mapped-like pressure: one set, 2 ways.
    mem::CacheParams p;
    p.name = "wb";
    p.size_bytes = 128; // 1 set x 2 ways
    p.assoc = 2;
    p.line_bytes = 64;
    mem::Cache cache(p);

    bool dirty = false;
    cache.accessAndFill(0 * 64, true, dirty);  // dirty line
    cache.accessAndFill(1 * 64, false, dirty); // clean line
    EXPECT_FALSE(dirty);
    cache.accessAndFill(2 * 64, false, dirty); // evicts LRU = dirty line 0
    EXPECT_TRUE(dirty);
    EXPECT_EQ(cache.evictions.value(), 1u);
    EXPECT_EQ(cache.writebacks.value(), 1u);
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.contains(64));
    EXPECT_TRUE(cache.contains(128));
}

// ---------------------------------------------------------------------------
// Dram::decode uses shifts and masks, so every organization field it
// divides by must be a power of two; the constructor names the one that
// is not.

TEST(DramDecodeDeathTest, NonPowerOfTwoFieldIsNamed)
{
    mem::DramParams banks;
    banks.banks_per_rank = 6;
    EXPECT_DEATH(mem::Dram dram(banks), "banks_per_rank = 6");
    mem::DramParams ranks;
    ranks.ranks_per_channel = 0;
    EXPECT_DEATH(mem::Dram dram(ranks), "ranks_per_channel = 0");
    mem::DramParams channels;
    channels.channels = 3;
    EXPECT_DEATH(mem::Dram dram(channels), "DRAM channels = 3");
    mem::DramParams row;
    row.row_bytes = 96 * 64;
    EXPECT_DEATH(mem::Dram dram(row), "row_bytes / 64 / channels = 48");
}

// ---------------------------------------------------------------------------
// TLB set indexing and the O(1) validCount.

TEST(TlbIndexing, NonPow2SetCountStillModulo)
{
    // 48 entries / 4 ways = 12 sets: not a power of two, so the mask
    // shortcut must not apply. VPNs congruent mod 12 share a set.
    tlb::TlbParams p;
    p.name = "np2";
    p.entries = 48;
    p.assoc = 4;
    tlb::Tlb tlb(p);

    const Vpn base = 5;
    for (unsigned k = 0; k < 4; ++k)
        tlb.fill(tlbEntry(base + 12 * k, 0x100 + k, 1, 1));
    EXPECT_EQ(tlb.validCount(), 4u);
    for (unsigned k = 0; k < 4; ++k)
        EXPECT_NE(tlb.probe(base + 12 * k, 1), nullptr);

    // A fifth fill into the same set evicts the LRU (the first fill).
    tlb.fill(tlbEntry(base + 12 * 4, 0x200, 1, 1));
    EXPECT_EQ(tlb.validCount(), 4u);
    EXPECT_EQ(tlb.probe(base, 1), nullptr);
    for (unsigned k = 1; k <= 4; ++k)
        EXPECT_NE(tlb.probe(base + 12 * k, 1), nullptr);

    // A VPN not congruent mod 12 lands in a different set: no conflict.
    tlb.fill(tlbEntry(base + 1, 0x300, 1, 1));
    EXPECT_EQ(tlb.validCount(), 5u);
    EXPECT_NE(tlb.probe(base + 1, 1), nullptr);
}

TEST(TlbIndexing, Pow2AndNonPow2AgreeOnConflicts)
{
    // The same conflict experiment on a pow2 geometry (the mask path):
    // VPNs congruent mod num_sets evict each other with assoc 1.
    for (unsigned entries : {16u, 12u}) {
        tlb::TlbParams p;
        p.name = "dm" + std::to_string(entries);
        p.entries = entries;
        p.assoc = 1;
        tlb::Tlb tlb(p);
        const unsigned sets = entries;

        tlb.fill(tlbEntry(7, 0x1, 1, 1));
        EXPECT_NE(tlb.probe(7, 1), nullptr);
        tlb.fill(tlbEntry(7 + sets, 0x2, 1, 1));
        // Same set, one way: the old entry is gone.
        EXPECT_EQ(tlb.probe(7, 1), nullptr) << entries;
        EXPECT_NE(tlb.probe(7 + sets, 1), nullptr) << entries;
        EXPECT_EQ(tlb.validCount(), 1u) << entries;
    }
}

TEST(TlbValidCount, CounterTracksFillAndInvalidate)
{
    tlb::Tlb tlb([] {
        tlb::TlbParams p;
        p.name = "vc";
        p.entries = 16;
        p.assoc = 4;
        return p;
    }());
    EXPECT_EQ(tlb.validCount(), 0u);

    tlb.fill(tlbEntry(0x10, 0x1, 1, 1));
    tlb.fill(tlbEntry(0x11, 0x2, 1, 1));
    tlb.fill(tlbEntry(0x12, 0x3, 2, 1));
    EXPECT_EQ(tlb.validCount(), 3u);

    // Refilling the same identity replaces, not grows.
    tlb.fill(tlbEntry(0x10, 0x9, 1, 1));
    EXPECT_EQ(tlb.validCount(), 3u);

    tlb.invalidate({Kind::Page, invalidCcid, 1, 0x10});
    EXPECT_EQ(tlb.validCount(), 2u);
    // Already gone: no change.
    tlb.invalidate({Kind::Page, invalidCcid, 1, 0x10});
    EXPECT_EQ(tlb.validCount(), 2u);

    tlb.invalidate({Kind::Pcid, invalidCcid, 1});
    EXPECT_EQ(tlb.validCount(), 1u);

    tlb.invalidateAll();
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST(TlbValidCount, SharedRangeInvalidateMaintainsCounter)
{
    tlb::Tlb tlb([] {
        tlb::TlbParams p;
        p.name = "vcs";
        p.entries = 16;
        p.assoc = 4;
        return p;
    }());
    for (Vpn v = 0x20; v < 0x28; ++v)
        tlb.fill(tlbEntry(v, v, 1, 7));
    EXPECT_EQ(tlb.validCount(), 8u);
    tlb.invalidate({Kind::SharedRange, 7, 0, 0x22, 3});
    EXPECT_EQ(tlb.validCount(), 5u);
    tlb.invalidate({Kind::SharedRange, 8, 0, 0x20, 8}); // wrong CCID
    EXPECT_EQ(tlb.validCount(), 5u);
}
