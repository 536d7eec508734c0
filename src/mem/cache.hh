/**
 * @file
 * A set-associative, write-back cache tag model with true-LRU replacement.
 *
 * The model is functional over cache-line tags (no data storage) and is
 * shared by the L1 I/D, L2 and L3 levels. Timing is applied by the
 * CacheHierarchy; this class only answers hit/miss and maintains the
 * tags, LRU stamps and dirty bits, each stored once per way.
 */

#ifndef BF_MEM_CACHE_HH
#define BF_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"

namespace bf::mem
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t size_bytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned line_bytes = 64;       //!< Must be cacheLineBytes.
    Cycles access_cycles = 2;       //!< Latency charged on a hit.

    /** Number of sets implied by the geometry. */
    std::uint64_t
    numSets() const
    {
        return size_bytes / (static_cast<std::uint64_t>(assoc) * line_bytes);
    }
};

/**
 * Tag-only set-associative cache with LRU replacement.
 *
 * Each way is stored once, in one allocation of three lanes (see the
 * private members): a packed key (tag << 1 | valid) that the hit test
 * compares, an LRU stamp and a dirty byte. That is 17 host bytes per
 * way; the 8 MiB L3 model takes 2.1 MiB of host memory.
 */
class Cache
{
  public:
    /**
     * @param params geometry of this level; assoc must be at least 1,
     *     line_bytes the modelled 64 and the set count a power of two.
     * @param parent stat group to register under, may be null.
     */
    explicit Cache(const CacheParams &params,
                   stats::StatGroup *parent = nullptr);

    /**
     * Access a line, filling it on a miss: one scan of the set answers
     * the lookup, and on a miss the victim is the first invalid way,
     * else the first minimum-LRU way. Every call, hit or fill, stamps
     * the touched way with the next LRU clock value.
     *
     * @param line_addr byte address; only the line number is used.
     * @param is_write whether the access dirties / inserts dirty.
     * @param[out] evicted_dirty true if a miss evicted a dirty victim.
     * @return true on hit.
     */
    bool accessAndFill(Addr line_addr, bool is_write, bool &evicted_dirty);

    /**
     * Invalidate a line if present (coherence or TLB-shootdown path).
     * The way keeps its tag and LRU stamp; only valid and dirty clear.
     */
    bool invalidate(Addr line_addr);

    /** Whether a line is present, with no LRU side effects. */
    bool contains(Addr line_addr) const;

    /** Drop every line (used between experiment phases). */
    void flush();

    /** Latency of a hit at this level. */
    Cycles accessCycles() const { return params_.access_cycles; }

    const CacheParams &params() const { return params_; }

    /**
     * @{ @name Checkpointing (geometry-verified tag/LRU/dirty dump)
     * One record per way, set-major: tag, valid, dirty, LRU stamp.
     */
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

    CacheParams params_;
    std::uint64_t num_sets_;
    std::uint64_t set_mask_;        //!< num_sets_ - 1 (sets are pow2).
    std::size_t ways_;              //!< num_sets_ * assoc.

    /**
     * The ways' state, one copy in one allocation, as three set-major
     * lanes indexed by set * assoc + way:
     *  - key_: tag << 1 | valid. The hit scan compares one word per
     *    way. An invalidated way keeps its tag with the valid bit clear.
     *  - lru_: LRU stamp, higher = more recently used.
     *  - dirty_: one byte per way.
     * One allocation, not three vectors: glibc's dynamic mmap
     * threshold then serves later caches of the same size from the
     * heap instead of fresh page-faulting mmaps (DESIGN.md §14). Four
     * host lines of padding separate consecutive lanes: lane sizes are
     * powers of two, so without it a way's key and its stamp would sit
     * a multiple of 4 KiB apart and alias in the host's memory
     * disambiguation.
     */
    std::unique_ptr<std::uint64_t[]> store_;
    std::uint64_t *key_ = nullptr;
    std::uint64_t *lru_ = nullptr;
    std::uint8_t *dirty_ = nullptr;
    std::uint64_t lru_clock_ = 0;
    stats::StatGroup stat_group_;

    static std::uint64_t
    packKey(Addr line_num)
    {
        return (line_num << 1) | 1u;
    }

    /**
     * Set selection. The constructor asserts num_sets_ is a power of
     * two, so the historical modulo reduces to a mask — no integer
     * divide on the per-access hot path.
     */
    std::uint64_t setIndex(Addr line_num) const { return line_num & set_mask_; }

    /** Index of the valid way holding @p line_num, or ways_ if none. */
    std::size_t find(Addr line_num) const;
};

} // namespace bf::mem

#endif // BF_MEM_CACHE_HH
