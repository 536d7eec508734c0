/**
 * @file
 * TLB tests: the conventional PCID lookup (paper Fig. 1) and the
 * BabelFish CCID + O-PC lookup algorithm (Fig. 8), fills, replacement,
 * and the three invalidation kinds.
 */

#include <gtest/gtest.h>

#include "tlb/tlb.hh"

using namespace bf;
using namespace bf::tlb;
using Kind = bf::vm::TlbInvalidate::Kind;

namespace
{

TlbParams
smallTlb(unsigned entries = 16, unsigned assoc = 4)
{
    TlbParams p;
    p.name = "t";
    p.entries = entries;
    p.assoc = assoc;
    p.page_size = PageSize::Size4K;
    return p;
}

TlbEntry
entry(Vpn vpn, Ppn ppn, Pcid pcid, Ccid ccid, bool owned = false,
      bool orpc = false, std::uint32_t mask = 0)
{
    TlbEntry e;
    e.valid = true;
    e.vpn = vpn;
    e.ppn = ppn;
    e.pcid = pcid;
    e.fill_pcid = pcid;
    e.ccid = ccid;
    e.owned = owned;
    e.orpc = orpc;
    e.pc_bitmask = mask;
    return e;
}

} // namespace

TEST(TlbConventional, HitRequiresPcidMatch)
{
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, /*pcid=*/1, /*ccid=*/5));
    EXPECT_TRUE(tlb.lookupConventional(0x10, 1).hit());
    EXPECT_FALSE(tlb.lookupConventional(0x10, 2).hit());
    EXPECT_FALSE(tlb.lookupConventional(0x11, 1).hit());
    EXPECT_EQ(tlb.hits.value(), 1u);
    EXPECT_EQ(tlb.misses.value(), 2u);
}

TEST(TlbConventional, ReplicasCoexistPerPcid)
{
    // The baseline pathology: identical {VPN, PPN} under different PCIDs
    // occupies multiple ways.
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5));
    tlb.fill(entry(0x10, 0x99, 2, 5));
    EXPECT_TRUE(tlb.lookupConventional(0x10, 1).hit());
    EXPECT_TRUE(tlb.lookupConventional(0x10, 2).hit());
    EXPECT_EQ(tlb.validCount(), 2u);
}

TEST(TlbBabelFish, SharedEntryHitsAcrossPcids)
{
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5));
    // Any process of CCID 5 hits; other CCIDs miss.
    EXPECT_TRUE(tlb.lookupBabelFish(0x10, 5, 1, -1).hit());
    EXPECT_TRUE(tlb.lookupBabelFish(0x10, 5, 2, -1).hit());
    EXPECT_FALSE(tlb.lookupBabelFish(0x10, 6, 1, -1).hit());
}

TEST(TlbBabelFish, SharedHitStatistic)
{
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5));
    auto own = tlb.lookupBabelFish(0x10, 5, 1, -1);
    EXPECT_FALSE(own.shared_hit);
    auto other = tlb.lookupBabelFish(0x10, 5, 2, -1);
    EXPECT_TRUE(other.shared_hit);
    EXPECT_EQ(tlb.shared_hits.value(), 1u);
}

TEST(TlbBabelFish, OwnedEntryRequiresPcid)
{
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5, /*owned=*/true));
    EXPECT_TRUE(tlb.lookupBabelFish(0x10, 5, 1, -1).hit());
    EXPECT_FALSE(tlb.lookupBabelFish(0x10, 5, 2, -1).hit());
}

TEST(TlbBabelFish, BitmaskBlocksPrivatizedProcess)
{
    // Fig. 8 steps 3/10: the shared entry is unusable for a process
    // whose PC-bitmask bit is set.
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5, false, /*orpc=*/true,
                   /*mask=*/0b0010));
    EXPECT_TRUE(tlb.lookupBabelFish(0x10, 5, 2, /*bit=*/0).hit());
    EXPECT_FALSE(tlb.lookupBabelFish(0x10, 5, 2, /*bit=*/1).hit());
    // A process with no bit assigned always passes.
    EXPECT_TRUE(tlb.lookupBabelFish(0x10, 5, 2, -1).hit());
}

TEST(TlbBabelFish, OrpcShortCircuitSkipsBitmask)
{
    // Fig. 5(b): ORPC clear => the bitmask is never consulted (10-cycle
    // access); ORPC set => it is (12-cycle access).
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5, false, /*orpc=*/false));
    auto fast = tlb.lookupBabelFish(0x10, 5, 2, 3);
    EXPECT_TRUE(fast.hit());
    EXPECT_FALSE(fast.bitmask_checked);

    tlb.fill(entry(0x20, 0x98, 1, 5, false, /*orpc=*/true, 0b1));
    auto slow = tlb.lookupBabelFish(0x20, 5, 2, 3);
    EXPECT_TRUE(slow.hit());
    EXPECT_TRUE(slow.bitmask_checked);
    EXPECT_EQ(tlb.bitmask_checks.value(), 1u);
}

TEST(TlbBabelFish, OwnedEntrySkipsBitmask)
{
    // Fig. 5(b): O set also skips the bitmask operations.
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5, /*owned=*/true, /*orpc=*/true, 0b1));
    auto lookup = tlb.lookupBabelFish(0x10, 5, 1, 0);
    EXPECT_TRUE(lookup.hit());
    EXPECT_FALSE(lookup.bitmask_checked);
}

TEST(TlbBabelFish, OwnedAndSharedCoexistOwnedWins)
{
    // After privatizing, a process has an owned entry while the shared
    // entry (with its bit set) remains for the others.
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5, false, true, 0b1)); // shared
    tlb.fill(entry(0x10, 0xAA, 2, 5, true));             // pcid 2's copy
    auto p2 = tlb.lookupBabelFish(0x10, 5, 2, 0);
    ASSERT_TRUE(p2.hit());
    EXPECT_EQ(p2.entry->ppn, 0xAAu);
    auto p3 = tlb.lookupBabelFish(0x10, 5, 3, -1);
    ASSERT_TRUE(p3.hit());
    EXPECT_EQ(p3.entry->ppn, 0x99u);
}

TEST(Tlb, FillReplacesMatchingTag)
{
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5));
    tlb.fill(entry(0x10, 0xAA, 1, 5)); // same tags: update in place
    EXPECT_EQ(tlb.validCount(), 1u);
    EXPECT_EQ(tlb.lookupConventional(0x10, 1).entry->ppn, 0xAAu);
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb(smallTlb(8, 4)); // 2 sets, 4 ways
    // VPNs 0,2,4,6 map to set 0.
    for (Vpn v : {0, 2, 4, 6})
        tlb.fill(entry(v, v + 100, 1, 5));
    tlb.lookupConventional(0, 1); // refresh VPN 0
    tlb.fill(entry(8, 108, 1, 5)); // evicts VPN 2 (LRU)
    EXPECT_TRUE(tlb.lookupConventional(0, 1).hit());
    EXPECT_FALSE(tlb.lookupConventional(2, 1).hit());
    EXPECT_TRUE(tlb.lookupConventional(8, 1).hit());
}

TEST(Tlb, InvalidatePage)
{
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5));
    tlb.fill(entry(0x10, 0x98, 2, 5));
    tlb.invalidate({Kind::Page, invalidCcid, 1, 0x10});
    EXPECT_FALSE(tlb.lookupConventional(0x10, 1).hit());
    EXPECT_TRUE(tlb.lookupConventional(0x10, 2).hit());
}

TEST(Tlb, InvalidateSharedRangeDropsOnlySharedOfCcid)
{
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 1, 1, 5, /*owned=*/false));
    tlb.fill(entry(0x11, 2, 1, 5, /*owned=*/true));
    tlb.fill(entry(0x12, 3, 1, 6, /*owned=*/false)); // other CCID
    tlb.invalidate({Kind::SharedRange, 5, 0, 0x10, 0x10});
    EXPECT_FALSE(tlb.lookupBabelFish(0x10, 5, 1, -1).hit());
    EXPECT_TRUE(tlb.lookupBabelFish(0x11, 5, 1, -1).hit());
    EXPECT_TRUE(tlb.lookupBabelFish(0x12, 6, 1, -1).hit());
}

TEST(Tlb, InvalidateSharedRangeRespectsBounds)
{
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x0f, 1, 1, 5));
    tlb.fill(entry(0x10, 2, 1, 5));
    tlb.fill(entry(0x13, 3, 1, 5));
    tlb.fill(entry(0x14, 4, 1, 5));
    tlb.invalidate({Kind::SharedRange, 5, 0, 0x10, 4}); // [0x10, 0x14)
    EXPECT_TRUE(tlb.lookupBabelFish(0x0f, 5, 1, -1).hit());
    EXPECT_FALSE(tlb.lookupBabelFish(0x10, 5, 1, -1).hit());
    EXPECT_FALSE(tlb.lookupBabelFish(0x13, 5, 1, -1).hit());
    EXPECT_TRUE(tlb.lookupBabelFish(0x14, 5, 1, -1).hit());
}

TEST(Tlb, InvalidatePcid)
{
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 1, 1, 5));
    tlb.fill(entry(0x20, 2, 1, 5));
    tlb.fill(entry(0x30, 3, 2, 5));
    tlb.invalidate({Kind::Pcid, invalidCcid, 1});
    EXPECT_FALSE(tlb.lookupConventional(0x10, 1).hit());
    EXPECT_FALSE(tlb.lookupConventional(0x20, 1).hit());
    EXPECT_TRUE(tlb.lookupConventional(0x30, 2).hit());
}

TEST(Tlb, FullyAssociativeWhenAssocZero)
{
    TlbParams p = smallTlb(4, 0);
    Tlb tlb(p);
    // All 4 entries usable regardless of VPN.
    for (Vpn v = 0; v < 4; ++v)
        tlb.fill(entry(v * 7, v, 1, 5));
    EXPECT_EQ(tlb.validCount(), 4u);
}

TEST(Tlb, ProbeHasNoSideEffects)
{
    Tlb tlb(smallTlb());
    tlb.fill(entry(0x10, 0x99, 1, 5));
    const auto hits = tlb.hits.value();
    EXPECT_NE(tlb.probe(0x10, 1), nullptr);
    EXPECT_EQ(tlb.probe(0x10, 9), nullptr);
    EXPECT_EQ(tlb.hits.value(), hits);
}

// Parameterized geometry sweep: fill-to-capacity then verify residency.
class TlbGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(TlbGeometry, FillToCapacity)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(smallTlb(entries, assoc));
    const unsigned sets = assoc ? entries / assoc : 1;
    // One entry per (set, way): all must be resident afterwards.
    for (unsigned w = 0; w < (assoc ? assoc : entries); ++w) {
        for (unsigned s = 0; s < sets; ++s)
            tlb.fill(entry(w * sets + s, w, 1, 5));
    }
    EXPECT_EQ(tlb.validCount(), entries);
    for (unsigned w = 0; w < (assoc ? assoc : entries); ++w) {
        for (unsigned s = 0; s < sets; ++s)
            EXPECT_TRUE(tlb.lookupConventional(w * sets + s, 1).hit());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometry,
    ::testing::Values(std::pair{16u, 4u}, std::pair{64u, 4u},
                      std::pair{32u, 4u}, std::pair{1536u, 12u},
                      std::pair{16u, 0u}, std::pair{4u, 0u}));
