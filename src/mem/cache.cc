#include "mem/cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::mem
{

namespace
{

/** Padding between consecutive lanes: four 64-byte host lines, in words. */
constexpr std::size_t laneSkewWords = 4 * 64 / sizeof(std::uint64_t);

/** The set count of @p p, after checking what it is computed from. */
std::uint64_t
checkedSets(const CacheParams &p)
{
    bf_assert(p.assoc >= 1, "cache ", p.name, " has zero associativity");
    bf_assert(p.line_bytes == cacheLineBytes, "cache ", p.name,
              " line_bytes ", p.line_bytes, " is not the modelled ",
              cacheLineBytes);
    const std::uint64_t sets = p.numSets();
    bf_assert(sets > 0, "cache ", p.name, " has zero sets");
    bf_assert((sets & (sets - 1)) == 0,
              "cache ", p.name, " set count not a power of two");
    return sets;
}

} // namespace

Cache::Cache(const CacheParams &params, stats::StatGroup *parent)
    : params_(params), num_sets_(checkedSets(params)),
      set_mask_(num_sets_ - 1), ways_(num_sets_ * params.assoc),
      stat_group_(params.name, parent)
{
    // key_ | skew | lru_ | skew | dirty_ (ways_ bytes, rounded to words)
    const std::size_t lane = ways_ + laneSkewWords;
    store_ = std::make_unique<std::uint64_t[]>(
        2 * lane + (ways_ + sizeof(std::uint64_t) - 1) /
                       sizeof(std::uint64_t));
    key_ = store_.get();
    lru_ = key_ + lane;
    dirty_ = reinterpret_cast<std::uint8_t *>(lru_ + lane);

    stat_group_.addStat("hits", &hits);
    stat_group_.addStat("misses", &misses);
    stat_group_.addStat("evictions", &evictions);
    stat_group_.addStat("writebacks", &writebacks);
    stat_group_.addStat("invalidations", &invalidations);
}

std::size_t
Cache::find(Addr line_num) const
{
    const std::size_t base = setIndex(line_num) * params_.assoc;
    const std::uint64_t want = packKey(line_num);
    for (std::size_t i = base; i < base + params_.assoc; ++i) {
        if (key_[i] == want)
            return i;
    }
    return ways_;
}

bool
Cache::accessAndFill(Addr line_addr, bool is_write, bool &evicted_dirty)
{
    const Addr line_num = lineOf(line_addr);
    const std::size_t base = setIndex(line_num) * params_.assoc;
    const std::uint64_t want = packKey(line_num);
    const std::uint64_t *key = key_ + base;
    std::uint64_t *lru = lru_ + base;
    const unsigned assoc = params_.assoc;
    const std::uint64_t lru_stamp = ++lru_clock_;

    for (unsigned way = 0; way < assoc; ++way) {
        if (key[way] != want)
            continue;
        lru[way] = lru_stamp;
        if (is_write)
            dirty_[base + way] = 1;
        ++hits;
        evicted_dirty = false;
        return true;
    }
    ++misses;

    // Victim: the first invalid way if any, else the first minimum-LRU
    // way.
    unsigned victim = 0;
    for (unsigned way = 0; way < assoc; ++way) {
        if (!(key[way] & 1u)) {
            victim = way;
            break;
        }
        if (lru[way] < lru[victim])
            victim = way;
    }

    const std::size_t slot = base + victim;
    const bool had_victim = key_[slot] & 1u;
    evicted_dirty = had_victim && dirty_[slot];
    if (had_victim) {
        ++evictions;
        if (evicted_dirty)
            ++writebacks;
    }
    key_[slot] = want;
    lru_[slot] = lru_stamp;
    dirty_[slot] = is_write;
    return false;
}

bool
Cache::invalidate(Addr line_addr)
{
    const std::size_t i = find(lineOf(line_addr));
    if (i == ways_)
        return false;
    key_[i] &= ~std::uint64_t{1};
    dirty_[i] = 0;
    ++invalidations;
    return true;
}

bool
Cache::contains(Addr line_addr) const
{
    return find(lineOf(line_addr)) != ways_;
}

void
Cache::flush()
{
    std::fill(key_, key_ + ways_, 0);
    std::fill(lru_, lru_ + ways_, 0);
    std::fill(dirty_, dirty_ + ways_, 0);
}

template <class Ar, class Self>
void
Cache::io(Ar &ar, Self &self)
{
    const std::string what =
        "cache '" + self.params_.name + "' checkpoint geometry mismatch";
    ar.expect(self.params_.name, what);
    ar.expect(static_cast<std::uint64_t>(self.params_.size_bytes), what);
    ar.expect(static_cast<std::uint32_t>(self.params_.assoc), what);
    ar.expect(static_cast<std::uint32_t>(self.params_.line_bytes), what);
    ar.u64(self.lru_clock_);
    for (std::size_t i = 0; i < self.ways_; ++i) {
        std::uint64_t tag = self.key_[i] >> 1;
        bool valid = self.key_[i] & 1u;
        bool dirty = self.dirty_[i];
        ar.u64(tag);
        ar.b(valid);
        ar.b(dirty);
        ar.u64(self.lru_[i]);
        if constexpr (Ar::loading) {
            if (tag >> 63)
                throw snap::SnapshotError("cache '" + self.params_.name +
                                          "' checkpoint tag out of range");
            self.key_[i] = tag << 1 | valid;
            self.dirty_[i] = dirty;
        }
    }
}

void
Cache::save(snap::ArchiveWriter &ar) const
{
    io(ar, *this);
}

void
Cache::restore(snap::ArchiveReader &ar)
{
    io(ar, *this);
}

} // namespace bf::mem
