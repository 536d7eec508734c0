/**
 * @file
 * A set-associative, write-back cache tag model with true-LRU replacement.
 *
 * The model is functional over cache-line tags (no data storage) and is
 * shared by the L1 I/D, L2 and L3 levels. Timing is applied by the
 * CacheHierarchy; this class only answers hit/miss and maintains the tags.
 */

#ifndef BF_MEM_CACHE_HH
#define BF_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace bf::mem
{

/** Geometry and bookkeeping parameters of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t size_bytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned line_bytes = 64;
    Cycles access_cycles = 2;       //!< Latency charged on a hit.
    unsigned mshrs = 16;            //!< Outstanding-miss bookkeeping only.

    /** Number of sets implied by the geometry. */
    std::uint64_t
    numSets() const
    {
        return size_bytes / (static_cast<std::uint64_t>(assoc) * line_bytes);
    }
};

/**
 * Externally accumulated cache statistics of one weave replay: the
 * replay tallies here, and the commit folds the tally into the
 * stats::Scalar counters once per chunk.
 */
struct CacheTally
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
};

/** Tag-only set-associative cache with LRU replacement. */
class Cache
{
  public:
    /**
     * @param params geometry of this level.
     * @param parent stat group to register under, may be null.
     */
    explicit Cache(const CacheParams &params,
                   stats::StatGroup *parent = nullptr);

    /**
     * Look up a line and update LRU/dirty state.
     *
     * @param line_addr byte address; only the line number is used.
     * @param is_write whether the access dirties the line.
     * @return true on hit.
     */
    bool access(Addr line_addr, bool is_write);

    /**
     * Insert a line, evicting the LRU way of its set if needed.
     *
     * @param line_addr the line to insert.
     * @param is_write whether to insert dirty.
     * @param[out] evicted_dirty true if a dirty victim was written back.
     * @return true if a valid victim was evicted.
     */
    bool insert(Addr line_addr, bool is_write, bool &evicted_dirty);

    /**
     * Combined access-or-fill: one scan of the set answers the lookup
     * AND selects the victim, so a miss does not re-walk the ways the
     * way the historical access()-then-insert() sequence did. Stats,
     * LRU state and the victim choice are identical to access()
     * followed (on a miss) by insert() — the equivalence is pinned by
     * tests/test_perf_fastpath.cc.
     *
     * @param line_addr byte address; only the line number is used.
     * @param is_write whether the access dirties / inserts dirty.
     * @param[out] evicted_dirty true if a miss evicted a dirty victim.
     * @return true on hit.
     */
    bool accessAndFill(Addr line_addr, bool is_write, bool &evicted_dirty);

    /**
     * Weave-phase accessAndFill: identical lookup/victim/dirty
     * semantics, but the touched line's LRU stamp is supplied by the
     * caller and the counters land in @p tally instead of the stats.
     *
     * The weave pre-computes each access's stamp as
     * lruClock() + 1 + its canonical index (every access bumps the
     * clock exactly once, hit or fill), replays the stream, and then
     * commitTally()s and advanceLruClock()s once. The resulting
     * tag/LRU/dirty bytes and stat totals are exactly those of an
     * accessAndFill drain; checkpoints cannot tell the difference.
     *
     * @return true on hit.
     */
    bool weaveAccessFill(Addr line_addr, bool is_write,
                         std::uint64_t lru_stamp, CacheTally &tally);

    /** Invalidate a line if present (coherence or TLB-shootdown path). */
    bool invalidate(Addr line_addr);

    /** Fold a weave tally into the stats (single-threaded commit). */
    void
    commitTally(const CacheTally &tally)
    {
        hits += tally.hits;
        misses += tally.misses;
        evictions += tally.evictions;
        writebacks += tally.writebacks;
    }

    /** @{ @name LRU clock (weave pre-stamping; see weaveAccessFill) */
    std::uint64_t lruClock() const { return lru_clock_; }
    void advanceLruClock(std::uint64_t n) { lru_clock_ += n; }
    /** @} */

    /** Whether a line is present, with no LRU side effects. */
    bool contains(Addr line_addr) const;

    /** Drop every line (used between experiment phases). */
    void flush();

    /** Latency of a hit at this level. */
    Cycles accessCycles() const { return params_.access_cycles; }

    const CacheParams &params() const { return params_; }

    /** @{ @name Checkpointing (geometry-verified tag/LRU/dirty dump) */
    void save(snap::ArchiveWriter &ar) const;
    void restore(snap::ArchiveReader &ar);
    /** @} */

    /** @{ @name Statistics */
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions;
    stats::Scalar writebacks;
    stats::Scalar invalidations;
    /** @} */

  private:
    template <class Ar, class Self> static void io(Ar &ar, Self &self);

    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;      //!< Higher = more recently used.
    };

    CacheParams params_;
    std::uint64_t num_sets_;
    std::uint64_t set_mask_;        //!< num_sets_ - 1 (sets are pow2).
    std::vector<Line> lines_;       //!< num_sets_ * assoc, set-major.
    /**
     * SoA shadow tags: key_[i] = tag << 1 | valid, kept in sync with
     * lines_ by every mutating path. The hit scans — by far the
     * hottest loops in the whole simulator — compare one packed word
     * per way instead of striding Line structs; lines_ stays
     * authoritative for LRU/dirty payload and checkpointing.
     */
    std::vector<std::uint64_t> key_;
    std::uint64_t lru_clock_ = 0;
    stats::StatGroup stat_group_;

    static std::uint64_t
    packKey(Addr line_num)
    {
        return (line_num << 1) | 1u;
    }

    void
    syncKey(std::size_t i)
    {
        key_[i] = lines_[i].valid ? packKey(lines_[i].tag) : 0;
    }

    /**
     * Set selection. The constructor asserts num_sets_ is a power of
     * two, so the historical modulo reduces to a mask — no integer
     * divide on the per-access hot path.
     */
    std::uint64_t setIndex(Addr line_num) const { return line_num & set_mask_; }
    const Line *find(Addr line_num) const;
    Line *find(Addr line_num);
};

} // namespace bf::mem

#endif // BF_MEM_CACHE_HH
