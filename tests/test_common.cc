/**
 * @file
 * Unit tests for src/common: types, RNG, and the statistics package.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace bf;

// ---------------------------------------------------------------------
// types
// ---------------------------------------------------------------------

TEST(Types, PageShifts)
{
    EXPECT_EQ(pageShift(PageSize::Size4K), 12);
    EXPECT_EQ(pageShift(PageSize::Size2M), 21);
    EXPECT_EQ(pageShift(PageSize::Size1G), 30);
}

TEST(Types, PageBytes)
{
    EXPECT_EQ(pageBytes(PageSize::Size4K), 4096u);
    EXPECT_EQ(pageBytes(PageSize::Size2M), 2ull << 20);
    EXPECT_EQ(pageBytes(PageSize::Size1G), 1ull << 30);
}

TEST(Types, VpnRoundTrip)
{
    const Addr va = 0x7f12'3456'7abcull;
    EXPECT_EQ(vpnToAddr(addrToVpn(va)), va & ~0xfffull);
    EXPECT_EQ(addrToVpn(va, PageSize::Size2M), va >> 21);
}

TEST(Types, LineOf)
{
    EXPECT_EQ(lineOf(0), 0u);
    EXPECT_EQ(lineOf(63), 0u);
    EXPECT_EQ(lineOf(64), 1u);
    EXPECT_EQ(lineOf(4096), 64u);
}

TEST(Types, MsToCycles)
{
    // 2 GHz: 10 ms = 20 M cycles (Table I quantum).
    EXPECT_EQ(msToCycles(10), 20'000'000u);
    EXPECT_DOUBLE_EQ(cyclesToNs(2), 1.0);
}

TEST(Types, PageSizeNames)
{
    EXPECT_STREQ(pageSizeName(PageSize::Size4K), "4K");
    EXPECT_STREQ(pageSizeName(PageSize::Size2M), "2M");
    EXPECT_STREQ(pageSizeName(PageSize::Size1G), "1G");
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull,
                                (1ull << 40)}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

// ---------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------

TEST(Stats, ScalarBasics)
{
    stats::Scalar s;
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 4;
    s.add(5);
    EXPECT_EQ(s.value(), 10u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, AverageBasics)
{
    stats::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Stats, LatencyPercentiles)
{
    stats::LatencyTracker t;
    for (int i = 1; i <= 100; ++i)
        t.sample(i);
    EXPECT_DOUBLE_EQ(t.mean(), 50.5);
    EXPECT_DOUBLE_EQ(t.percentile(50), 50);
    EXPECT_DOUBLE_EQ(t.percentile(95), 95);
    EXPECT_DOUBLE_EQ(t.percentile(100), 100);
    EXPECT_DOUBLE_EQ(t.percentile(0), 1);
}

TEST(Stats, LatencySingleSample)
{
    stats::LatencyTracker t;
    t.sample(7);
    EXPECT_DOUBLE_EQ(t.percentile(95), 7);
    EXPECT_DOUBLE_EQ(t.mean(), 7);
}

TEST(Stats, LatencyEmpty)
{
    stats::LatencyTracker t;
    EXPECT_DOUBLE_EQ(t.percentile(95), 0);
    EXPECT_DOUBLE_EQ(t.mean(), 0);
}

TEST(Stats, LatencySampleAfterPercentile)
{
    stats::LatencyTracker t;
    t.sample(10);
    EXPECT_DOUBLE_EQ(t.percentile(50), 10);
    t.sample(5); // must re-sort
    EXPECT_DOUBLE_EQ(t.percentile(0), 5);
}

TEST(Stats, GroupPaths)
{
    stats::StatGroup root("system");
    stats::StatGroup child("core0", &root);
    stats::StatGroup grand("mmu", &child);
    EXPECT_EQ(grand.path(), "system.core0.mmu");
}

TEST(Stats, GroupScalarLookup)
{
    stats::StatGroup root("system");
    stats::StatGroup child("core0", &root);
    stats::Scalar hits;
    hits += 5;
    child.addStat("hits", &hits);
    EXPECT_EQ(root.scalar("core0.hits"), 5u);
    EXPECT_TRUE(root.hasScalar("core0.hits"));
    EXPECT_FALSE(root.hasScalar("core0.misses"));
    EXPECT_FALSE(root.hasScalar("core1.hits"));
}

TEST(Stats, GroupDump)
{
    stats::StatGroup root("sys");
    stats::Scalar s;
    s += 3;
    root.addStat("count", &s);
    std::ostringstream oss;
    root.dump(oss);
    EXPECT_EQ(oss.str(), "sys.count 3\n");
}

// resetTree zeroes every registered stat of every kind, in the group
// and its children.
TEST(StatGroup, ResetTreeResetsEveryKind)
{
    stats::StatGroup root("system");
    stats::StatGroup child("core0", &root);
    stats::Scalar scalar[2];
    stats::Average average[2];
    stats::LatencyTracker latency[2];
    stats::Distribution distribution[2];
    stats::StatGroup *groups[] = {&root, &child};
    for (int g = 0; g < 2; ++g) {
        groups[g]->addStat("scalar", &scalar[g]);
        groups[g]->addStat("average", &average[g]);
        groups[g]->addStat("latency", &latency[g]);
        groups[g]->addStat("distribution", &distribution[g]);
        scalar[g] += 7;
        average[g].sample(3.5);
        latency[g].sample(12.0);
        distribution[g].sample(300);
    }

    root.resetTree();
    for (int g = 0; g < 2; ++g) {
        SCOPED_TRACE(groups[g]->path());
        EXPECT_EQ(scalar[g].value(), 0u);
        EXPECT_EQ(average[g].count(), 0u);
        EXPECT_EQ(average[g].sum(), 0.0);
        EXPECT_EQ(latency[g].count(), 0u);
        EXPECT_EQ(distribution[g].count(), 0u);
        EXPECT_EQ(distribution[g].sum(), 0u);
        EXPECT_EQ(distribution[g].max(), 0u);
        EXPECT_TRUE(distribution[g].buckets().empty());
    }
}

TEST(StatsDeath, DuplicateStatPanics)
{
    stats::StatGroup root("sys");
    stats::Scalar a, b;
    root.addStat("x", &a);
    EXPECT_DEATH(root.addStat("x", &b), "duplicate stat");
}

TEST(StatsDeath, MissingScalarPanics)
{
    stats::StatGroup root("sys");
    EXPECT_DEATH((void)root.scalar("nope"), "no such stat");
}
