#include "mem/cache.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::mem
{

Cache::Cache(const CacheParams &params, stats::StatGroup *parent)
    : params_(params), num_sets_(params.numSets()),
      set_mask_(num_sets_ - 1), stat_group_(params.name, parent)
{
    bf_assert(num_sets_ > 0, "cache ", params_.name, " has zero sets");
    bf_assert((num_sets_ & (num_sets_ - 1)) == 0,
              "cache ", params_.name, " set count not a power of two");
    lines_.resize(num_sets_ * params_.assoc);
    key_.resize(num_sets_ * params_.assoc, 0);

    stat_group_.addStat("hits", &hits);
    stat_group_.addStat("misses", &misses);
    stat_group_.addStat("evictions", &evictions);
    stat_group_.addStat("writebacks", &writebacks);
    stat_group_.addStat("invalidations", &invalidations);
}

const Cache::Line *
Cache::find(Addr line_num) const
{
    const std::size_t base = setIndex(line_num) * params_.assoc;
    const std::uint64_t want = packKey(line_num);
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (key_[base + way] == want)
            return &lines_[base + way];
    }
    return nullptr;
}

Cache::Line *
Cache::find(Addr line_num)
{
    return const_cast<Line *>(std::as_const(*this).find(line_num));
}

bool
Cache::access(Addr line_addr, bool is_write)
{
    const Addr line_num = lineOf(line_addr);
    Line *line = find(line_num);
    if (line) {
        line->lru = ++lru_clock_;
        line->dirty |= is_write;
        ++hits;
        return true;
    }
    ++misses;
    return false;
}

bool
Cache::insert(Addr line_addr, bool is_write, bool &evicted_dirty)
{
    const Addr line_num = lineOf(line_addr);
    const std::uint64_t set = setIndex(line_num);
    Line *base = &lines_[set * params_.assoc];

    Line *victim = &base[0];
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (!base[way].valid) {
            victim = &base[way];
            break;
        }
        if (base[way].lru < victim->lru)
            victim = &base[way];
    }

    const bool had_victim = victim->valid;
    evicted_dirty = had_victim && victim->dirty;
    if (had_victim) {
        ++evictions;
        if (evicted_dirty)
            ++writebacks;
    }

    victim->tag = line_num;
    victim->valid = true;
    victim->dirty = is_write;
    victim->lru = ++lru_clock_;
    syncKey(static_cast<std::size_t>(victim - lines_.data()));
    return had_victim;
}

bool
Cache::accessAndFill(Addr line_addr, bool is_write, bool &evicted_dirty)
{
    const Addr line_num = lineOf(line_addr);
    const std::size_t base = setIndex(line_num) * params_.assoc;
    const std::uint64_t want = packKey(line_num);
    const unsigned assoc = params_.assoc;

    // Hit scan over the packed shadow tags: the common case touches
    // one or two cache lines of keys and only the matching Line.
    for (unsigned way = 0; way < assoc; ++way) {
        if (key_[base + way] != want)
            continue;
        Line &match = lines_[base + way];
        match.lru = ++lru_clock_;
        match.dirty |= is_write;
        ++hits;
        evicted_dirty = false;
        return true;
    }
    ++misses;

    // Miss: pick the insert() victim — first invalid way if any, else
    // the minimum-LRU way — exactly as the historical one-pass scan.
    Line *set_base = &lines_[base];
    Line *victim = nullptr;
    Line *lru = &set_base[0];
    for (unsigned way = 0; way < assoc; ++way) {
        Line &line = set_base[way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lru < lru->lru)
            lru = &line;
    }
    if (!victim)
        victim = lru;

    const bool had_victim = victim->valid;
    evicted_dirty = had_victim && victim->dirty;
    if (had_victim) {
        ++evictions;
        if (evicted_dirty)
            ++writebacks;
    }
    victim->tag = line_num;
    victim->valid = true;
    victim->dirty = is_write;
    victim->lru = ++lru_clock_;
    syncKey(base + static_cast<std::size_t>(victim - set_base));
    return false;
}

bool
Cache::weaveAccessFill(Addr line_addr, bool is_write,
                       std::uint64_t lru_stamp, CacheTally &tally)
{
    const Addr line_num = lineOf(line_addr);
    const std::size_t base = setIndex(line_num) * params_.assoc;
    const std::uint64_t want = packKey(line_num);
    const unsigned assoc = params_.assoc;

    for (unsigned way = 0; way < assoc; ++way) {
        if (key_[base + way] != want)
            continue;
        Line &match = lines_[base + way];
        match.lru = lru_stamp;
        match.dirty |= is_write;
        ++tally.hits;
        return true;
    }
    ++tally.misses;

    Line *set_base = &lines_[base];
    Line *victim = nullptr;
    Line *lru = &set_base[0];
    for (unsigned way = 0; way < assoc; ++way) {
        Line &line = set_base[way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lru < lru->lru)
            lru = &line;
    }
    if (!victim)
        victim = lru;

    if (victim->valid) {
        ++tally.evictions;
        if (victim->dirty)
            ++tally.writebacks;
    }
    victim->tag = line_num;
    victim->valid = true;
    victim->dirty = is_write;
    victim->lru = lru_stamp;
    syncKey(base + static_cast<std::size_t>(victim - set_base));
    return false;
}

bool
Cache::invalidate(Addr line_addr)
{
    Line *line = find(lineOf(line_addr));
    if (!line)
        return false;
    line->valid = false;
    line->dirty = false;
    key_[static_cast<std::size_t>(line - lines_.data())] = 0;
    ++invalidations;
    return true;
}

bool
Cache::contains(Addr line_addr) const
{
    return find(lineOf(line_addr)) != nullptr;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
    std::fill(key_.begin(), key_.end(), 0);
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
    for (auto &line : self.lines_) {
        ar.u64(line.tag);
        ar.b(line.valid);
        ar.b(line.dirty);
        ar.u64(line.lru);
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
    for (std::size_t i = 0; i < lines_.size(); ++i)
        syncKey(i);
}

} // namespace bf::mem
