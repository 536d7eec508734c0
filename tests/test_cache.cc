/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/snapshot.hh"
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
    EXPECT_FALSE(cache.accessAndFill(0x1000, false, dirty));
    EXPECT_TRUE(cache.accessAndFill(0x1000, false, dirty));
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(cache.misses.value(), 1u);
}

TEST(Cache, SameLineDifferentBytesHit)
{
    Cache cache(smallCache());
    bool dirty = false;
    cache.accessAndFill(0x1000, false, dirty);
    EXPECT_TRUE(cache.accessAndFill(0x1004, false, dirty));
    EXPECT_TRUE(cache.accessAndFill(0x103f, false, dirty));
    EXPECT_FALSE(cache.accessAndFill(0x1040, false, dirty)); // next line
}

TEST(Cache, LruEviction)
{
    // 4-way cache: fill 5 lines mapping to the same set; the first
    // (least recently used) must be the victim.
    CacheParams p = smallCache(4, 4);
    Cache cache(p);
    const std::uint64_t sets = p.numSets();
    bool dirty = false;

    for (std::uint64_t i = 0; i < 5; ++i)
        cache.accessAndFill(i * sets * 64, false, dirty);

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
        cache.accessAndFill(i * sets * 64, false, dirty);
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_TRUE(cache.accessAndFill(0, false, dirty));
    cache.accessAndFill(4 * sets * 64, false, dirty);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1 * sets * 64));
}

TEST(Cache, DirtyWriteback)
{
    CacheParams p = smallCache(4, 1); // direct mapped
    Cache cache(p);
    const std::uint64_t sets = p.numSets();
    bool dirty = false;

    cache.accessAndFill(0, true, dirty); // dirty line
    EXPECT_FALSE(dirty);
    cache.accessAndFill(sets * 64, false, dirty); // evicts the dirty line
    EXPECT_TRUE(dirty);
    EXPECT_EQ(cache.writebacks.value(), 1u);
}

TEST(Cache, WriteOnHitDirtiesLine)
{
    CacheParams p = smallCache(4, 1);
    Cache cache(p);
    const std::uint64_t sets = p.numSets();
    bool dirty = false;

    cache.accessAndFill(0, false, dirty);
    EXPECT_TRUE(cache.accessAndFill(0, true, dirty)); // dirties it
    cache.accessAndFill(sets * 64, false, dirty);
    EXPECT_TRUE(dirty);
}

TEST(Cache, Invalidate)
{
    Cache cache(smallCache());
    bool dirty = false;
    cache.accessAndFill(0x2000, false, dirty);
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
        cache.accessAndFill(i * 64, false, dirty);
    cache.flush();
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(cache.contains(i * 64));
}

TEST(Cache, ContainsHasNoSideEffects)
{
    Cache cache(smallCache());
    bool dirty = false;
    cache.accessAndFill(0x1000, false, dirty);
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
    cache.accessAndFill(0x1000, false, dirty);
    cache.accessAndFill(0x1000, false, dirty);
    ASSERT_EQ(cache.hits.value(), 1u);
    root.resetTree();
    EXPECT_EQ(cache.hits.value(), 0u);
    EXPECT_EQ(cache.misses.value(), 0u);
    // Tags survive a stats reset.
    EXPECT_TRUE(cache.contains(0x1000));
}

TEST(CacheDeathTest, ZeroAssocNamesTheCache)
{
    CacheParams p = smallCache();
    p.name = "zero_ways";
    p.assoc = 0;
    EXPECT_DEATH(Cache cache(p), "zero_ways has zero associativity");
}

TEST(CacheDeathTest, LineBytesMustBeTheModelledLine)
{
    CacheParams p = smallCache();
    p.name = "wide_lines";
    p.line_bytes = 128;
    EXPECT_DEATH(Cache cache(p), "wide_lines line_bytes 128");
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

        bool dirty = false;
        const bool hit = cache.accessAndFill(addr, false, dirty);
        ASSERT_EQ(hit, ref_hit) << "iteration " << i << " line " << line;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(CacheGeometry{4, 1}, CacheGeometry{4, 2},
                      CacheGeometry{4, 4}, CacheGeometry{8, 8},
                      CacheGeometry{16, 4}, CacheGeometry{32, 8},
                      CacheGeometry{64, 16}));

// ---------------------------------------------------------------------
// Reference model: a cache that stores each way as one Line struct, the
// layout this model had before its lanes. The lane layout must be
// indistinguishable from it: per-op outcomes, every counter and the
// checkpoint bytes, stale tags of invalidated ways included.
// ---------------------------------------------------------------------

namespace
{

class LineCache
{
  public:
    explicit LineCache(const CacheParams &p)
        : params_(p), lines_(p.numSets() * p.assoc)
    {}

    /** Every access stamps the touched line with the next clock. */
    bool
    accessAndFill(Addr addr, bool is_write, bool &evicted_dirty)
    {
        const std::uint64_t stamp = ++lru_clock_;
        const Addr line_num = lineOf(addr);
        if (Line *hit = find(line_num)) {
            hit->lru = stamp;
            hit->dirty |= is_write;
            ++stats.hits;
            evicted_dirty = false;
            return true;
        }
        ++stats.misses;
        Line *set = setOf(line_num);
        Line *victim = nullptr;
        Line *lru = &set[0];
        for (unsigned way = 0; way < params_.assoc; ++way) {
            if (!set[way].valid) {
                victim = &set[way];
                break;
            }
            if (set[way].lru < lru->lru)
                lru = &set[way];
        }
        if (!victim)
            victim = lru;
        evicted_dirty = victim->valid && victim->dirty;
        if (victim->valid) {
            ++stats.evictions;
            if (evicted_dirty)
                ++stats.writebacks;
        }
        *victim = Line{line_num, true, is_write, stamp};
        return false;
    }

    bool
    invalidate(Addr addr)
    {
        Line *line = find(lineOf(addr));
        if (!line)
            return false;
        line->valid = false;
        line->dirty = false;
        ++invalidations;
        return true;
    }

    bool contains(Addr addr) { return find(lineOf(addr)) != nullptr; }
    void flush() { std::fill(lines_.begin(), lines_.end(), Line{}); }

    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.expect(self.params_.name, "name");
        ar.expect(static_cast<std::uint64_t>(self.params_.size_bytes),
                  "size");
        ar.expect(static_cast<std::uint32_t>(self.params_.assoc), "assoc");
        ar.expect(static_cast<std::uint32_t>(self.params_.line_bytes),
                  "line");
        ar.u64(self.lru_clock_);
        for (auto &line : self.lines_) {
            ar.u64(line.tag);
            ar.b(line.valid);
            ar.b(line.dirty);
            ar.u64(line.lru);
        }
    }

    struct
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t writebacks = 0;
    } stats;
    std::uint64_t invalidations = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    CacheParams params_;
    std::vector<Line> lines_;
    std::uint64_t lru_clock_ = 0;

    Line *
    setOf(Addr line_num)
    {
        return &lines_[(line_num % params_.numSets()) * params_.assoc];
    }

    Line *
    find(Addr line_num)
    {
        Line *set = setOf(line_num);
        for (unsigned way = 0; way < params_.assoc; ++way) {
            if (set[way].valid && set[way].tag == line_num)
                return &set[way];
        }
        return nullptr;
    }
};

std::vector<std::uint8_t>
bytesOf(const Cache &cache)
{
    snap::ArchiveWriter w;
    cache.save(w);
    return w.payload();
}

std::vector<std::uint8_t>
bytesOf(const LineCache &ref)
{
    snap::ArchiveWriter w;
    LineCache::io(w, ref);
    return w.payload();
}

} // namespace

TEST(CacheReference, MatchesLineStructModel)
{
    for (const CacheGeometry geom : {CacheGeometry{4, 1}, CacheGeometry{4, 4},
                                     CacheGeometry{16, 16},
                                     CacheGeometry{32, 8}}) {
        SCOPED_TRACE(testing::Message() << geom.size_kb << " KiB, "
                                        << geom.assoc << "-way");
        const CacheParams p = smallCache(geom.size_kb, geom.assoc);
        auto cache = std::make_unique<Cache>(p);
        auto ref = std::make_unique<LineCache>(p);
        const std::uint64_t pool = 3 * p.size_bytes / 64;

        Rng rng(geom.size_kb * 977 + geom.assoc);
        const auto randomAddr = [&] {
            // Some lines far above the pool exercise high tag bits.
            const Addr high = rng.below(8) == 0 ? Addr{1} << 50 : 0;
            const Addr line = rng.below(pool) + high;
            return line * 64 + rng.below(64);
        };

        unsigned saves = 0;
        for (int op = 0; op < 30000; ++op) {
            const unsigned kind = static_cast<unsigned>(rng.below(100));
            if (kind < 75) {
                const Addr addr = randomAddr();
                const bool is_write = rng.below(3) == 0;
                bool got_dirty = true;
                bool want_dirty = true;
                ASSERT_EQ(cache->accessAndFill(addr, is_write, got_dirty),
                          ref->accessAndFill(addr, is_write, want_dirty))
                    << "op " << op;
                ASSERT_EQ(got_dirty, want_dirty) << "op " << op;
            } else if (kind < 85) {
                const Addr addr = randomAddr();
                ASSERT_EQ(cache->invalidate(addr), ref->invalidate(addr))
                    << "op " << op;
            } else if (kind < 94) {
                const Addr addr = randomAddr();
                ASSERT_EQ(cache->contains(addr), ref->contains(addr))
                    << "op " << op;
            } else if (kind < 95) {
                cache->flush();
                ref->flush();
            } else {
                // save -> restore, crossed: each model restores a fresh
                // instance from the other's bytes and carries on.
                const auto got = bytesOf(*cache);
                const auto want = bytesOf(*ref);
                ASSERT_EQ(got, want) << "op " << op;

                auto restored = std::make_unique<Cache>(p);
                snap::ArchiveReader r(want);
                restored->restore(r);
                ASSERT_TRUE(r.atEnd());
                for (auto counter : {&Cache::hits, &Cache::misses,
                                     &Cache::evictions, &Cache::writebacks,
                                     &Cache::invalidations})
                    ((*restored).*counter)
                        .restoreValue(((*cache).*counter).value());
                cache = std::move(restored);

                auto ref_restored = std::make_unique<LineCache>(p);
                snap::ArchiveReader rr(got);
                LineCache::io(rr, *ref_restored);
                ref_restored->stats = ref->stats;
                ref_restored->invalidations = ref->invalidations;
                ref = std::move(ref_restored);
                ++saves;
            }
        }

        EXPECT_GT(saves, 0u);
        EXPECT_GT(ref->stats.writebacks, 0u);
        EXPECT_GT(ref->invalidations, 0u);
        EXPECT_EQ(cache->hits.value(), ref->stats.hits);
        EXPECT_EQ(cache->misses.value(), ref->stats.misses);
        EXPECT_EQ(cache->evictions.value(), ref->stats.evictions);
        EXPECT_EQ(cache->writebacks.value(), ref->stats.writebacks);
        EXPECT_EQ(cache->invalidations.value(), ref->invalidations);
        EXPECT_EQ(bytesOf(*cache), bytesOf(*ref));
    }
}

TEST(CacheReference, RestoreRejectsAnUnpackableTag)
{
    const CacheParams p = smallCache(4, 1);
    LineCache ref(p);
    bool dirty = false;
    ref.accessAndFill(0, false, dirty);
    auto bytes = bytesOf(ref);
    // The first way's tag starts right after the header and the clock;
    // set its top bit, which no line number of a 64-bit address has.
    const std::size_t tag_at = bytes.size() - p.numSets() * 18 + 7;
    bytes[tag_at] |= 0x80;
    Cache cache(p);
    snap::ArchiveReader r(bytes);
    EXPECT_THROW(cache.restore(r), snap::SnapshotError);
}
