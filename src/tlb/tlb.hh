/**
 * @file
 * A set-associative TLB for one page size, supporting both the
 * conventional lookup (VPN + PCID, paper Fig. 1) and the BabelFish lookup
 * of paper Fig. 8 (VPN + CCID with the O-PC checks).
 */

#ifndef BF_TLB_TLB_HH
#define BF_TLB_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/tlb_entry.hh"

namespace bf::tlb
{

/** Geometry of one TLB structure. */
struct TlbParams
{
    /**
     * Replacement policy within a set. Lru is the recorded-hardware
     * default; Fifo never promotes on hit (fill-order eviction); Random
     * picks a victim from a deterministic per-structure xorshift stream
     * so runs stay reproducible.
     */
    enum class Policy : std::uint8_t { Lru = 0, Fifo = 1, Random = 2 };

    std::string name = "tlb";
    unsigned entries = 64;
    unsigned assoc = 4;      //!< 0 or >= entries => fully associative.
    PageSize page_size = PageSize::Size4K;
    Cycles access_cycles = 1;
    /**
     * Extra cycles when the PC bitmask must be consulted on a lookup
     * (the 12- vs 10-cycle L2 TLB access times of Table I).
     */
    Cycles bitmask_extra_cycles = 2;
    Policy policy = Policy::Lru;
};

/** Stable lower-case policy name ("lru", "fifo", "random"). */
const char *policyName(TlbParams::Policy policy);

/** Result of a TLB lookup. */
struct TlbLookup
{
    const TlbEntry *entry = nullptr; //!< nullptr on miss.
    bool hit() const { return entry != nullptr; }
    /** The PC bitmask was consulted (charges the long access time). */
    bool bitmask_checked = false;
    /**
     * Hit on an entry filled by a different process — the paper's
     * "Shared Hit" metric (Fig. 10b).
     */
    bool shared_hit = false;
};

/** One set-associative TLB structure. */
class Tlb
{
  public:
    /**
     * @param params geometry.
     * @param parent stat group to register under, may be null.
     */
    explicit Tlb(const TlbParams &params,
                 stats::StatGroup *parent = nullptr);

    /**
     * Conventional lookup: VPN and PCID must match (paper §II-B).
     * Updates LRU and hit/miss statistics.
     */
    TlbLookup lookupConventional(Vpn vpn, Pcid pcid);

    /**
     * BabelFish lookup (paper Fig. 8). All ways with a matching VPN and
     * CCID are candidates:
     *  - Ownership set: usable only on a PCID match.
     *  - Ownership clear: usable unless ORPC is set and the requesting
     *    process' bit in the PC bitmask is set (it privatized the page's
     *    region and must use its own owned entry instead).
     *
     * @param process_bit the bit index the process owns in the region's
     *        PC bitmask, or -1 when it never privatized there.
     */
    TlbLookup lookupBabelFish(Vpn vpn, Ccid ccid, Pcid pcid,
                              int process_bit);

    /**
     * Insert a translation, evicting LRU within the set.
     *
     * @param shared_dedup BabelFish semantics for shared (Ownership-
     *        clear) entries: one entry per {VPN, CCID} regardless of the
     *        filling PCID, so refills by different group members coalesce
     *        instead of replicating. Conventional fills keep per-PCID
     *        entries.
     * @param evicted when non-null, receives the valid entry this fill
     *        displaced (entry-capacity backends spill it elsewhere);
     *        left untouched when the fill replaced an invalid way or
     *        refreshed the same identity.
     * @return true when a valid, different-identity entry was evicted
     *        (i.e. @p evicted was written).
     */
    bool fill(const TlbEntry &entry, bool shared_dedup = false,
              TlbEntry *evicted = nullptr);

    /** @{ @name Invalidation */
    /**
     * Apply a kernel shootdown: drop every entry tlb::shotDownBy says
     * it reaches. The empty-structure exit stays inline: a warm core's
     * backend hands each shootdown to all seven TLBs, and most of them
     * hold nothing of the shot-down page size. (Cores that have never
     * translated are skipped before this, in core::Mmu.)
     */
    void
    invalidate(const vm::TlbInvalidate &inv)
    {
        if (valid_count_ != 0)
            shootDown(inv);
    }
    /** Drop everything. */
    void invalidateAll();
    /** @} */

    /** Probe without stats/LRU side effects (tests). */
    const TlbEntry *probe(Vpn vpn, Pcid pcid) const;

    /**
     * @{
     * @name L0 inline-cache stat replay (see core::Mmu)
     * The Mmu's L0 front cache short-circuits a lookup it has proven
     * (by re-validating the live entry) would hit this structure. These
     * replay exactly the side effects the bypassed scan would have had:
     * the LRU touch under the Lru policy, and the hit/miss counters.
     */
    void
    recordL0Hit(TlbEntry *entry, bool shared)
    {
        if (params_.policy == TlbParams::Policy::Lru)
            entry->lru = ++lru_clock_;
        ++hits;
        if (shared)
            ++shared_hits;
    }

    void recordL0Miss() { ++misses; }
    /** @} */

    /**
     * Number of valid entries. O(1): a counter maintained by fill and
     * the invalidate paths; debug builds cross-check it against a full
     * scan.
     */
    unsigned validCount() const;

    const TlbParams &params() const { return params_; }

    /**
     * @{
     * @name Checkpointing
     * Full content dump: every way of every set with all tags, O-PC
     * state and LRU stamps, plus the LRU clock. restore() verifies the
     * geometry fingerprint first, then that the valid count matches the
     * valid ways and every valid way has this structure's page size; it
     * throws snap::SnapshotError on any mismatch. Stats ride the stats
     * tree, not this path.
     */
    void save(snap::ArchiveWriter &ar) const;
    void restore(snap::ArchiveReader &ar);
    /** @} */

    /** @{ @name Statistics */
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar shared_hits;      //!< Hits on entries filled by others.
    stats::Scalar bitmask_checks;   //!< Lookups paying the long access.
    stats::Scalar fills;
    stats::Scalar invalidations;
    /** @} */

  private:
    template <class Ar, class Self> static void io(Ar &ar, Self &self);

    TlbParams params_;
    unsigned num_sets_;
    std::uint64_t set_mask_ = 0;    //!< num_sets_ - 1 when pow2.
    bool sets_pow2_ = false;
    unsigned valid_count_ = 0;
    /**
     * Set-major, and the structure's only copy of its entries: lookups,
     * fills and shootdowns scan it directly, and the Mmu's L0 front
     * cache points into it.
     */
    std::vector<TlbEntry> entries_;

    std::uint64_t lru_clock_ = 0;
    std::uint64_t rng_state_ = 0;   //!< Random-policy xorshift state.

    stats::StatGroup stat_group_;

    /** Drop the entries @p inv reaches (non-empty structure). */
    void shootDown(const vm::TlbInvalidate &inv);

    /**
     * Set selection. Unlike the caches, a TLB's set count is not
     * guaranteed to be a power of two (entries/assoc is arbitrary), so
     * the constructor precomputes whether the modulo reduces to a mask
     * and this helper — shared by the lookup, fill, invalidate and
     * probe paths — picks the divide-free form when it can.
     */
    unsigned
    setIndex(Vpn vpn) const
    {
        return sets_pow2_ ? static_cast<unsigned>(vpn & set_mask_)
                          : static_cast<unsigned>(vpn % num_sets_);
    }

    TlbEntry *setBase(Vpn vpn) { return &entries_[setIndex(vpn) *
                                                  params_.assoc]; }
    const TlbEntry *
    setBase(Vpn vpn) const
    {
        return &entries_[setIndex(vpn) * params_.assoc];
    }

    /** Full-scan recount, for the debug cross-check of valid_count_. */
    unsigned recountValid() const;

    /** Deterministic per-structure seed for the Random policy. */
    std::uint64_t policySeed() const;

    /** Advance the xorshift64 stream and return the new state. */
    std::uint64_t nextRand();
};

} // namespace bf::tlb

#endif // BF_TLB_TLB_HH
