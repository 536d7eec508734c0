/**
 * @file
 * Translation-backend zoo tests (DESIGN.md §16).
 *
 * Conformance suite, parameterized over every BackendKind: the
 * interface contract — lookup/fill/invalidate semantics, shootdowns
 * reaching every backend structure, checkpoint round-trips, the
 * stats-tree shape — must hold for the reference backend and each
 * competitor alike. Backend-specific tests then exercise the Victima
 * backing store and the coalesced range TLB directly, and a
 * cross-backend smoke asserts all designs resolve the same workload to
 * identical physical addresses (architectural equivalence: a backend
 * may change timing, never what memory an access touches).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stats_export.hh"
#include "core/mmu.hh"
#include "translate/coalesced.hh"
#include "translate/structures.hh"
#include "translate/victima.hh"

using namespace bf;
using namespace bf::core;
using namespace bf::vm;

namespace
{

constexpr Addr kVa = 0x7f00'0000'0000ull;

/**
 * One-core world around an Mmu with a selectable backend, on the
 * system flavor the backend is benchmarked on (the reference design on
 * the paper configuration, competitors on the non-sharing baseline
 * their papers assume).
 */
struct Fixture
{
    SystemParams params;
    stats::StatGroup root{"root"};
    Kernel kernel;
    mem::CacheHierarchy mem;
    Mmu mmu;
    Ccid ccid;
    Process *a;
    Process *b;
    MappedObject *file;

    static SystemParams
    paramsFor(translate::BackendKind backend)
    {
        SystemParams p = backend == translate::BackendKind::BabelFish
                             ? SystemParams::babelfish()
                             : SystemParams::baseline();
        p.mmu.backend = backend;
        return p;
    }

    explicit Fixture(SystemParams p)
        : params(p),
          kernel([&] {
              auto kp = p.kernel;
              kp.mem_frames = 1 << 22;
              return kp;
          }()),
          mem(p.mem, 1),
          mmu(0, [&] { auto m = p.mmu; m.aslr = p.kernel.aslr;
                       return m; }(), mem, kernel, &root)
    {
        kernel.setTlbInvalidateHook(
            [this](const TlbInvalidate &inv) { mmu.applyInvalidate(inv); });
        ccid = kernel.createGroup("g", 1);
        a = kernel.createProcess(ccid, "a");
        b = kernel.createProcess(ccid, "b");
        file = kernel.createFile("f", 64 << 20);
        file->preload(kernel.frames());
        kernel.mmapObject(*a, file, kVa, 64 << 20, 0, true, false, false);
        kernel.mmapObject(*b, file, kVa, 64 << 20, 0, true, false, false);
    }

    explicit Fixture(translate::BackendKind backend)
        : Fixture(paramsFor(backend))
    {
    }

    /** Shrink the L2 TLBs so evictions are cheap to provoke. */
    static SystemParams
    smallL2For(translate::BackendKind backend)
    {
        SystemParams p = paramsFor(backend);
        for (tlb::TlbParams *tp :
             { &p.mmu.l2_4k, &p.mmu.l2_2m, &p.mmu.l2_1g }) {
            tp->entries = 16;
            tp->assoc = 4;
        }
        return p;
    }

    std::uint64_t walks() const
    {
        return const_cast<Fixture *>(this)->mmu.walker().walks.value();
    }
};

class BackendConformance
    : public ::testing::TestWithParam<translate::BackendKind>
{
};

} // namespace

TEST_P(BackendConformance, FirstAccessFaultsThenHits)
{
    Fixture f(GetParam());
    const auto first = f.mmu.translate(*f.a, kVa, AccessType::Read, 0);
    EXPECT_TRUE(first.faulted);
    EXPECT_EQ(f.mmu.minor_faults.value(), 1u);
    bool dummy = false;
    const Ppn frame = f.file->frameFor(0, f.kernel.frames(), dummy);
    EXPECT_EQ(first.paddr, frame * basePageBytes);

    const auto second = f.mmu.translate(*f.a, kVa, AccessType::Read, 100);
    EXPECT_FALSE(second.faulted);
    EXPECT_EQ(second.paddr, first.paddr);
    EXPECT_LE(second.cycles, 13u); // a TLB (or L0) hit, never a walk
    EXPECT_EQ(f.mmu.minor_faults.value(), 1u);
}

TEST_P(BackendConformance, PageShootdownForcesRewalk)
{
    Fixture f(GetParam());
    f.mmu.translate(*f.a, kVa, AccessType::Read, 0);
    const std::uint64_t walks_before = f.walks();
    f.mmu.applyInvalidate({TlbInvalidate::Kind::Page, f.a->ccid(),
                           f.a->pcid(), kVa >> pageShift(PageSize::Size4K),
                           1, PageSize::Size4K});
    const auto t = f.mmu.translate(*f.a, kVa, AccessType::Read, 1000);
    EXPECT_FALSE(t.faulted); // the page stayed mapped, only TLBs dropped
    EXPECT_EQ(f.walks(), walks_before + 1);
}

TEST_P(BackendConformance, PcidShootdownDropsEverything)
{
    Fixture f(GetParam());
    for (int i = 0; i < 8; ++i)
        f.mmu.translate(*f.a, kVa + i * basePageBytes, AccessType::Read,
                        i * 100);
    const std::uint64_t walks_before = f.walks();
    f.mmu.applyInvalidate({TlbInvalidate::Kind::Pcid, f.a->ccid(),
                           f.a->pcid(), 0, 0, PageSize::Size4K});
    for (int i = 0; i < 8; ++i)
        f.mmu.translate(*f.a, kVa + i * basePageBytes, AccessType::Read,
                        10000 + i * 100);
    EXPECT_EQ(f.walks(), walks_before + 8);
}

TEST_P(BackendConformance, FlushAllDropsEverything)
{
    Fixture f(GetParam());
    for (int i = 0; i < 8; ++i)
        f.mmu.translate(*f.a, kVa + i * basePageBytes, AccessType::Read,
                        i * 100);
    const std::uint64_t walks_before = f.walks();
    f.mmu.flushAll();
    f.mmu.translate(*f.a, kVa, AccessType::Read, 10000);
    EXPECT_EQ(f.walks(), walks_before + 1);
}

TEST_P(BackendConformance, CowWriteFaultsAndPrivatizes)
{
    Fixture f(GetParam());
    const auto r = f.mmu.translate(*f.a, kVa, AccessType::Read, 0);
    const auto w = f.mmu.translate(*f.a, kVa, AccessType::Write, 100);
    EXPECT_TRUE(w.faulted);
    EXPECT_GE(f.mmu.cow_faults.value(), 1u);
    EXPECT_NE(w.paddr / basePageBytes, r.paddr / basePageBytes);
    // The privatized frame sticks: a later write hits it fault-free.
    const auto w2 = f.mmu.translate(*f.a, kVa, AccessType::Write, 10000);
    EXPECT_FALSE(w2.faulted);
    EXPECT_EQ(w2.paddr, w.paddr);
}

TEST_P(BackendConformance, CheckpointRoundTrip)
{
    // Fill TLBs (and, with a small L2, any backend-side structures)
    // in one world, snapshot the backend, restore it into a freshly
    // built identical world: the warmed state must carry over — the
    // restored MMU resolves the same pages without a single new walk.
    Fixture f(Fixture::smallL2For(GetParam()));
    for (int i = 0; i < 64; ++i)
        f.mmu.translate(*f.a, kVa + i * basePageBytes, AccessType::Read,
                        i * 100);
    snap::ArchiveWriter w;
    f.mmu.save(w);

    Fixture g(Fixture::smallL2For(GetParam()));
    snap::ArchiveReader r(w.payload());
    g.mmu.restore(r);
    EXPECT_TRUE(r.atEnd());

    // Accesses recent enough to still be TLB- or backend-resident.
    const std::uint64_t walks_before = g.walks();
    for (int i = 56; i < 64; ++i) {
        const auto t = g.mmu.translate(*g.a, kVa + i * basePageBytes,
                                       AccessType::Read, 100000 + i);
        EXPECT_FALSE(t.faulted);
    }
    EXPECT_EQ(g.walks(), walks_before);

    // A second snapshot of the restored backend is byte-identical.
    snap::ArchiveWriter w2;
    Fixture h(Fixture::smallL2For(GetParam()));
    snap::ArchiveReader r2(w.payload());
    h.mmu.restore(r2);
    h.mmu.save(w2);
    EXPECT_EQ(w.payload(), w2.payload());
}

namespace
{

/** The Mmu's checkpoint bytes: the contents of every structure. */
std::vector<std::uint8_t>
mmuBytes(const Mmu &mmu)
{
    snap::ArchiveWriter w;
    mmu.save(w);
    return w.payload();
}

} // namespace

TEST_P(BackendConformance, ShootdownOnColdCoreChangesNothing)
{
    // A core that has never translated holds nothing a shootdown could
    // drop, so the Mmu skips it. The skip is exact: driving the same
    // shootdowns through the backend itself leaves every structure (the
    // checkpoint bytes) and every stat exactly as they were.
    Fixture f(GetParam());
    const auto bytes = mmuBytes(f.mmu);
    const std::string stats = stats::toJsonString(f.root);
    const TlbInvalidate shootdowns[] = {
        {TlbInvalidate::Kind::SharedRange, f.ccid, 0, kVa >> 12, 512,
         PageSize::Size4K},
        {TlbInvalidate::Kind::Pcid, f.ccid, f.a->pcid(), 0, 0,
         PageSize::Size4K},
    };
    for (const TlbInvalidate &inv : shootdowns) {
        f.mmu.applyInvalidate(inv);
        f.mmu.backend().applyInvalidate(inv);
        EXPECT_EQ(mmuBytes(f.mmu), bytes);
        EXPECT_EQ(stats::toJsonString(f.root), stats);
    }
    // The kernel's set-up shootdowns (under BabelFish a private write
    // fill issues a SharedRange one) reach the cold core the same way.
    const std::uint64_t issued = f.kernel.shootdowns.value();
    f.kernel.handleFault(*f.a, kVa, AccessType::Write);
    if (f.params.kernel.babelfish) {
        EXPECT_GT(f.kernel.shootdowns.value(), issued);
    }
    EXPECT_EQ(mmuBytes(f.mmu), bytes);
    EXPECT_EQ(stats::toJsonString(f.root), stats);
}

TEST_P(BackendConformance, RestoredCoreStillLosesEntriesToShootdowns)
{
    // restore() is the other way entries enter an Mmu: a core resumed
    // from a checkpoint must lose them to a later shootdown before it
    // translates anything, exactly as the core that was saved does.
    Fixture f(Fixture::smallL2For(GetParam()));
    for (int i = 0; i < 64; ++i) {
        f.mmu.translate(*f.a, kVa + i * basePageBytes, AccessType::Read,
                        i * 100);
        f.mmu.translate(*f.b, kVa + i * basePageBytes, AccessType::Read,
                        i * 100 + 50);
    }
    Fixture g(Fixture::smallL2For(GetParam()));
    snap::ArchiveReader r(mmuBytes(f.mmu));
    g.mmu.restore(r);
    ASSERT_EQ(mmuBytes(g.mmu), mmuBytes(f.mmu));

    // The reads filled shared (Ownership-clear) entries: the baseline
    // kernel of the competitors sets no Ownership bit at all. The
    // SharedRange shootdown drops them from the restored core as from
    // the saved one; a Pcid shootdown then leaves both alike too.
    const auto restored = mmuBytes(g.mmu);
    const std::uint64_t dropped =
        g.mmu.l2(PageSize::Size4K).invalidations.value();
    const TlbInvalidate shared{TlbInvalidate::Kind::SharedRange, f.ccid,
                               0, kVa >> 12, 64, PageSize::Size4K};
    f.mmu.applyInvalidate(shared);
    g.mmu.applyInvalidate(shared);
    EXPECT_NE(mmuBytes(g.mmu), restored);
    EXPECT_GT(g.mmu.l2(PageSize::Size4K).invalidations.value(), dropped);
    EXPECT_EQ(mmuBytes(g.mmu), mmuBytes(f.mmu));
    const TlbInvalidate pcid{TlbInvalidate::Kind::Pcid, f.ccid,
                             f.a->pcid(), 0, 0, PageSize::Size4K};
    f.mmu.applyInvalidate(pcid);
    g.mmu.applyInvalidate(pcid);
    EXPECT_EQ(mmuBytes(g.mmu), mmuBytes(f.mmu));
}

TEST_P(BackendConformance, StatsTreeShape)
{
    Fixture f(GetParam());
    f.mmu.translate(*f.a, kVa, AccessType::Read, 0);
    const std::string json = stats::toJsonString(f.root);
    // The facade's access-level counters and the pipeline structures
    // are present for every backend, under the same names.
    for (const char *key :
         { "\"mmu\"", "\"l1_hits\"", "\"l2_data_hits\"", "\"minor_faults\"",
           "\"miss_latency\"", "\"pwc\"", "\"walker\"" })
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // Competitor structures appear only in their own tree.
    const bool victima = GetParam() == translate::BackendKind::Victima;
    const bool coalesced =
        GetParam() == translate::BackendKind::Coalesced;
    EXPECT_EQ(json.find("\"victima\"") != std::string::npos, victima);
    EXPECT_EQ(json.find("\"coalesced\"") != std::string::npos, coalesced);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, BackendConformance,
    ::testing::Values(translate::BackendKind::BabelFish,
                      translate::BackendKind::Victima,
                      translate::BackendKind::Coalesced),
    [](const ::testing::TestParamInfo<translate::BackendKind> &info) {
        return std::string(translate::backendName(info.param));
    });

// ---------------------------------------------------------------------
// Cross-backend architectural equivalence
// ---------------------------------------------------------------------

TEST(BackendZoo, SameWorkloadSamePhysicalAddresses)
{
    // The same access sequence — reads, CoW writes, two processes —
    // must touch the same physical memory under every backend. Run it
    // per backend and diff the resolved paddr streams.
    const translate::BackendKind kinds[] = {
        translate::BackendKind::BabelFish,
        translate::BackendKind::Victima,
        translate::BackendKind::Coalesced,
    };
    std::vector<std::vector<Addr>> streams;
    for (translate::BackendKind kind : kinds) {
        // Identical mapping structure for all backends (CoW behavior
        // differs between babelfish and baseline kernels, so pin the
        // kernel flavor and vary only the MMU backend).
        SystemParams p = SystemParams::baseline();
        p.mmu.backend = kind;
        Fixture f(p);
        std::vector<Addr> stream;
        Cycles now = 0;
        for (int i = 0; i < 400; ++i) {
            const Addr va = kVa + (i % 97) * basePageBytes;
            const AccessType type =
                i % 5 == 3 ? AccessType::Write : AccessType::Read;
            Process &proc = i % 3 == 2 ? *f.b : *f.a;
            const auto t = f.mmu.translate(proc, va, type, now);
            now += t.cycles + 10;
            stream.push_back(t.paddr);
        }
        streams.push_back(std::move(stream));
    }
    EXPECT_EQ(streams[0], streams[1]);
    EXPECT_EQ(streams[0], streams[2]);
}

// ---------------------------------------------------------------------
// Victima backing store
// ---------------------------------------------------------------------

namespace
{

/** Fixture with a 16-entry L2 so spills/ranges are easy to provoke. */
struct SmallL2Fixture : Fixture
{
    explicit SmallL2Fixture(translate::BackendKind kind)
        : Fixture(Fixture::smallL2For(kind))
    {
    }
};

} // namespace

TEST(BackendZoo, VictimaSpillsOnL2EvictionAndBackfills)
{
    SmallL2Fixture f(translate::BackendKind::Victima);
    auto &backend = dynamic_cast<translate::VictimaBackend &>(
        f.mmu.backend());
    // 400 pages through a 16-entry L2: nearly everything spills.
    for (int i = 0; i < 400; ++i)
        f.mmu.translate(*f.a, kVa + i * basePageBytes, AccessType::Read,
                        i * 1000);
    EXPECT_GT(backend.store().validCount(), 0u);

    // Page 0 is long gone from L0/L1/L2 but parked in the store: the
    // re-access must backfill from it, not walk.
    const std::uint64_t walks_before = f.walks();
    const auto t = f.mmu.translate(*f.a, kVa, AccessType::Read, 1000000);
    EXPECT_FALSE(t.faulted);
    EXPECT_EQ(f.walks(), walks_before);
}

TEST(BackendZoo, VictimaShootdownReachesStore)
{
    SmallL2Fixture f(translate::BackendKind::Victima);
    auto &backend = dynamic_cast<translate::VictimaBackend &>(
        f.mmu.backend());
    for (int i = 0; i < 400; ++i)
        f.mmu.translate(*f.a, kVa + i * basePageBytes, AccessType::Read,
                        i * 1000);
    ASSERT_GT(backend.store().validCount(), 0u);
    f.mmu.applyInvalidate({TlbInvalidate::Kind::Pcid, f.a->ccid(),
                           f.a->pcid(), 0, 0, PageSize::Size4K});
    EXPECT_EQ(backend.store().validCount(), 0u);
}

// ---------------------------------------------------------------------
// Coalesced range TLB
// ---------------------------------------------------------------------

namespace
{

/**
 * Sequentially write an anonymous region: fresh frames come off the
 * allocator in order, so fills are VPN- and PPN-contiguous and non-CoW
 * — exactly what the run detector coalesces (file-backed CoW fills are
 * deliberately excluded from ranges).
 */
constexpr Addr kAnonVa = 0x0001'0000'0000ull;

void
touchAnonSequential(Fixture &f, int pages)
{
    f.kernel.mmapAnon(*f.a, kAnonVa, 4ull << 20, true,
                      /*allow_huge=*/false);
    for (int i = 0; i < pages; ++i)
        f.mmu.translate(*f.a, kAnonVa + i * basePageBytes,
                        AccessType::Write, i * 1000);
}

} // namespace

TEST(BackendZoo, CoalescedInstallsRangesAndHitsThem)
{
    SmallL2Fixture f(translate::BackendKind::Coalesced);
    auto &backend = dynamic_cast<translate::CoalescedBackend &>(
        f.mmu.backend());
    touchAnonSequential(f, 400);
    EXPECT_GT(backend.ranges().validCount(), 0u);

    // An early page has fallen out of L0/L1/L2 (16 entries) but sits
    // inside a surviving range: the re-access is range-covered, no walk.
    const std::uint64_t walks_before = f.walks();
    const auto t = f.mmu.translate(*f.a, kAnonVa + 398 * basePageBytes,
                                   AccessType::Read, 1000000);
    EXPECT_FALSE(t.faulted);
    EXPECT_EQ(f.walks(), walks_before);
}

TEST(BackendZoo, CoalescedShootdownReachesRanges)
{
    SmallL2Fixture f(translate::BackendKind::Coalesced);
    auto &backend = dynamic_cast<translate::CoalescedBackend &>(
        f.mmu.backend());
    touchAnonSequential(f, 400);
    ASSERT_GT(backend.ranges().validCount(), 0u);
    f.mmu.applyInvalidate({TlbInvalidate::Kind::Pcid, f.a->ccid(),
                           f.a->pcid(), 0, 0, PageSize::Size4K});
    EXPECT_EQ(backend.ranges().validCount(), 0u);
}

// ---------------------------------------------------------------------
// Functional-structure unit tests
// ---------------------------------------------------------------------

namespace
{

tlb::TlbEntry
makeEntry(Vpn vpn, Ppn ppn, Pcid pcid, Ccid ccid, bool owned)
{
    tlb::TlbEntry e;
    e.valid = true;
    e.vpn = vpn;
    e.ppn = ppn;
    e.size = PageSize::Size4K;
    e.pcid = pcid;
    e.ccid = ccid;
    e.owned = owned;
    return e;
}

} // namespace

TEST(VictimStore, MatchRulesMirrorTheTlb)
{
    translate::VictimStore store(256);
    // Owned entry: PCID match required, CCID irrelevant.
    store.insert(makeEntry(10, 100, 1, 7, true));
    EXPECT_NE(store.probe(10, PageSize::Size4K, 1, 9, true, -1), nullptr);
    EXPECT_EQ(store.probe(10, PageSize::Size4K, 2, 7, true, -1), nullptr);
    // Shared entry: CCID match, vetoed by an ORPC process bit.
    auto shared = makeEntry(11, 101, 1, 7, false);
    shared.orpc = true;
    shared.pc_bitmask = 0b100;
    store.insert(shared);
    EXPECT_NE(store.probe(11, PageSize::Size4K, 5, 7, true, 1), nullptr);
    EXPECT_EQ(store.probe(11, PageSize::Size4K, 5, 7, true, 2), nullptr);
    EXPECT_EQ(store.probe(11, PageSize::Size4K, 5, 8, true, 1), nullptr);
    // Baseline mode ignores sharing: plain PCID tags.
    EXPECT_EQ(store.probe(11, PageSize::Size4K, 5, 7, false, -1), nullptr);
}

TEST(VictimStore, InvalidateKinds)
{
    translate::VictimStore store(256);
    store.insert(makeEntry(10, 100, 1, 7, true));
    store.insert(makeEntry(11, 101, 2, 7, false));
    store.insert(makeEntry(12, 102, 2, 7, true));
    // Shared 2M entries over 4K VPNs [0, 512) and [512, 1024); the
    // second belongs to another container.
    tlb::TlbEntry huge = makeEntry(0, 200, 2, 7, false);
    huge.size = PageSize::Size2M;
    store.insert(huge);
    tlb::TlbEntry other = makeEntry(1, 201, 3, 8, false);
    other.size = PageSize::Size2M;
    store.insert(other);
    ASSERT_EQ(store.validCount(), 5u);

    // Page: exact {pcid, vpn, size}.
    store.invalidate({vm::TlbInvalidate::Kind::Page, 7, 1, 10, 1,
                      PageSize::Size4K});
    EXPECT_EQ(store.validCount(), 4u);
    // SharedRange: only non-owned entries of the CCID in range; a range
    // in 4K VPNs ([8, 520) here) also reaches the 2M entries it overlaps.
    store.invalidate({vm::TlbInvalidate::Kind::SharedRange, 7, 0, 8, 512,
                      PageSize::Size4K});
    EXPECT_EQ(store.validCount(), 2u); // the owned vpn=12, CCID 8's 2M
    EXPECT_EQ(store.probe(0, PageSize::Size2M, 2, 7, true, -1), nullptr);
    EXPECT_NE(store.probe(1, PageSize::Size2M, 3, 8, true, -1), nullptr);
    // Pcid: everything of the process.
    store.invalidate({vm::TlbInvalidate::Kind::Pcid, 7, 2, 0, 0,
                      PageSize::Size4K});
    EXPECT_EQ(store.validCount(), 1u);
}

TEST(VictimStore, SaveRestoreRoundTripAndSizeGuard)
{
    translate::VictimStore store(256);
    store.insert(makeEntry(10, 100, 1, 7, true));
    store.insert(makeEntry(500, 200, 2, 7, false));
    snap::ArchiveWriter w;
    store.save(w);

    translate::VictimStore copy(256);
    snap::ArchiveReader r(w.payload());
    copy.restore(r);
    EXPECT_EQ(copy.validCount(), 2u);
    EXPECT_NE(copy.probe(10, PageSize::Size4K, 1, 7, true, -1), nullptr);

    translate::VictimStore wrong(128);
    snap::ArchiveReader r2(w.payload());
    EXPECT_THROW(wrong.restore(r2), snap::SnapshotError);
}

TEST(RangeTlb, LookupInsertAndLru)
{
    translate::RangeTlb ranges(2);
    ranges.insert(100, 1000, 4, 1, 7);
    const auto *hit = ranges.lookup(102, 1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->base_ppn + (102 - hit->base_vpn), 1002u);
    EXPECT_EQ(ranges.lookup(104, 1), nullptr); // one past the end
    EXPECT_EQ(ranges.lookup(102, 2), nullptr); // wrong process

    // Same {pcid, base} updates in place (a growing run re-announces).
    ranges.insert(100, 1000, 6, 1, 7);
    EXPECT_EQ(ranges.validCount(), 1u);
    EXPECT_NE(ranges.lookup(105, 1), nullptr);

    // Capacity 2: a third distinct range evicts the LRU one.
    ranges.insert(200, 2000, 2, 1, 7);
    ranges.lookup(100, 1); // touch the first range
    ranges.insert(300, 3000, 2, 1, 7);
    EXPECT_NE(ranges.lookup(100, 1), nullptr);
    EXPECT_EQ(ranges.lookup(200, 1), nullptr); // LRU victim
    EXPECT_NE(ranges.lookup(300, 1), nullptr);
}

TEST(RangeTlb, ConservativeInvalidateOnAnyOverlap)
{
    translate::RangeTlb ranges(8);
    ranges.insert(100, 1000, 8, 1, 7);
    // A 2M-page shootdown of another process still drops overlapping
    // ranges (conservative: correctness over retention).
    ranges.invalidate({vm::TlbInvalidate::Kind::Page, 9, 5, 0, 1,
                       PageSize::Size2M});
    EXPECT_EQ(ranges.validCount(), 0u);

    ranges.insert(100, 1000, 8, 1, 7);
    // Disjoint 4K range: survives.
    ranges.invalidate({vm::TlbInvalidate::Kind::Page, 7, 1, 200, 4,
                       PageSize::Size4K});
    EXPECT_EQ(ranges.validCount(), 1u);
}

TEST(RunDetector, ExtendsResetsAndCaps)
{
    translate::RunDetector det;
    translate::RunDetector::Run run;
    EXPECT_FALSE(det.note(1, 100, 1000, run)); // first fill: length 1
    EXPECT_TRUE(det.note(1, 101, 1001, run));
    EXPECT_EQ(run.base_vpn, 100u);
    EXPECT_EQ(run.len, 2u);
    // VPN-contiguous but PPN-discontiguous: run resets.
    EXPECT_FALSE(det.note(1, 102, 5000, run));
    // A long run caps at kMaxRun and restarts.
    for (std::uint64_t i = 0; i < 2 * translate::RunDetector::kMaxRun;
         ++i)
        det.note(2, 1000 + i, 9000 + i, run);
    EXPECT_LE(run.len, translate::RunDetector::kMaxRun);
}
