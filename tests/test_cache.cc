/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"

using namespace bf;
using namespace bf::mem;

namespace
{

CacheParams
smallCache(unsigned size_kb = 4, unsigned assoc = 4)
{
    CacheParams p;
    p.name = "test";
    p.size_bytes = size_kb * 1024ull;
    p.assoc = assoc;
    p.line_bytes = 64;
    p.access_cycles = 2;
    return p;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache cache(smallCache());
    bool dirty = false;
    EXPECT_FALSE(cache.access(0x1000, false));
    cache.insert(0x1000, false, dirty);
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(cache.misses.value(), 1u);
}

TEST(Cache, SameLineDifferentBytesHit)
{
    Cache cache(smallCache());
    bool dirty = false;
    cache.insert(0x1000, false, dirty);
    EXPECT_TRUE(cache.access(0x1004, false));
    EXPECT_TRUE(cache.access(0x103f, false));
    EXPECT_FALSE(cache.access(0x1040, false)); // next line
}

TEST(Cache, LruEviction)
{
    // 4-way cache: insert 5 lines mapping to the same set; the first
    // (least recently used) must be the victim.
    CacheParams p = smallCache(4, 4);
    Cache cache(p);
    const std::uint64_t sets = p.numSets();
    bool dirty = false;

    for (std::uint64_t i = 0; i < 5; ++i)
        cache.insert(i * sets * 64, false, dirty);

    EXPECT_FALSE(cache.contains(0));            // evicted
    for (std::uint64_t i = 1; i < 5; ++i)
        EXPECT_TRUE(cache.contains(i * sets * 64));
    EXPECT_EQ(cache.evictions.value(), 1u);
}

TEST(Cache, AccessRefreshesLru)
{
    CacheParams p = smallCache(4, 4);
    Cache cache(p);
    const std::uint64_t sets = p.numSets();
    bool dirty = false;

    for (std::uint64_t i = 0; i < 4; ++i)
        cache.insert(i * sets * 64, false, dirty);
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_TRUE(cache.access(0, false));
    cache.insert(4 * sets * 64, false, dirty);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1 * sets * 64));
}

TEST(Cache, DirtyWriteback)
{
    CacheParams p = smallCache(4, 1); // direct mapped
    Cache cache(p);
    const std::uint64_t sets = p.numSets();
    bool dirty = false;

    cache.insert(0, true, dirty); // dirty line
    EXPECT_FALSE(dirty);
    cache.insert(sets * 64, false, dirty); // evicts the dirty line
    EXPECT_TRUE(dirty);
    EXPECT_EQ(cache.writebacks.value(), 1u);
}

TEST(Cache, WriteOnHitDirtiesLine)
{
    CacheParams p = smallCache(4, 1);
    Cache cache(p);
    const std::uint64_t sets = p.numSets();
    bool dirty = false;

    cache.insert(0, false, dirty);
    EXPECT_TRUE(cache.access(0, true)); // dirties it
    cache.insert(sets * 64, false, dirty);
    EXPECT_TRUE(dirty);
}

TEST(Cache, Invalidate)
{
    Cache cache(smallCache());
    bool dirty = false;
    cache.insert(0x2000, false, dirty);
    EXPECT_TRUE(cache.invalidate(0x2000));
    EXPECT_FALSE(cache.contains(0x2000));
    EXPECT_FALSE(cache.invalidate(0x2000)); // second time: not present
    EXPECT_EQ(cache.invalidations.value(), 1u);
}

TEST(Cache, Flush)
{
    Cache cache(smallCache());
    bool dirty = false;
    for (int i = 0; i < 10; ++i)
        cache.insert(i * 64, false, dirty);
    cache.flush();
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(cache.contains(i * 64));
}

TEST(Cache, ContainsHasNoSideEffects)
{
    Cache cache(smallCache());
    bool dirty = false;
    cache.insert(0x1000, false, dirty);
    const auto hits_before = cache.hits.value();
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_FALSE(cache.contains(0x9000));
    EXPECT_EQ(cache.hits.value(), hits_before);
}

TEST(Cache, ResetStats)
{
    stats::StatGroup root("root");
    Cache cache(smallCache(), &root);
    bool dirty = false;
    cache.insert(0x1000, false, dirty);
    cache.access(0x1000, false);
    ASSERT_EQ(cache.hits.value(), 1u);
    root.resetTree();
    EXPECT_EQ(cache.hits.value(), 0u);
    EXPECT_EQ(cache.misses.value(), 0u);
    // Tags survive a stats reset.
    EXPECT_TRUE(cache.contains(0x1000));
}

// ---------------------------------------------------------------------
// Property test: the model agrees with a reference LRU simulation over
// random traces, across geometries.
// ---------------------------------------------------------------------

struct CacheGeometry
{
    unsigned size_kb;
    unsigned assoc;
};

class CacheProperty : public ::testing::TestWithParam<CacheGeometry>
{};

TEST_P(CacheProperty, MatchesReferenceLru)
{
    const auto geom = GetParam();
    CacheParams p = smallCache(geom.size_kb, geom.assoc);
    Cache cache(p);

    // Reference: per-set vector of lines in LRU order.
    const std::uint64_t sets = p.numSets();
    std::vector<std::vector<std::uint64_t>> ref(sets);

    Rng rng(geom.size_kb * 131 + geom.assoc);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t line = rng.below(4 * p.size_bytes / 64);
        const Addr addr = line * 64;
        const std::uint64_t set = line % sets;
        auto &order = ref[set];
        auto it = std::find(order.begin(), order.end(), line);
        const bool ref_hit = it != order.end();
        if (ref_hit)
            order.erase(it);
        order.push_back(line);
        if (order.size() > p.assoc)
            order.erase(order.begin());

        const bool hit = cache.access(addr, false);
        ASSERT_EQ(hit, ref_hit) << "iteration " << i << " line " << line;
        if (!hit) {
            bool dirty = false;
            cache.insert(addr, false, dirty);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(CacheGeometry{4, 1}, CacheGeometry{4, 2},
                      CacheGeometry{4, 4}, CacheGeometry{8, 8},
                      CacheGeometry{16, 4}, CacheGeometry{32, 8},
                      CacheGeometry{64, 16}));
