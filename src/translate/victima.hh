/**
 * @file
 * Victima-style translation backend (arxiv 2310.04158): the reference
 * pipeline plus a backing store that parks L2-TLB evictions in the
 * simulated cache hierarchy, extending TLB reach with the data arrays.
 *
 * What is modeled:
 *  - Every valid entry evicted from the L2 TLB spills into a
 *    direct-mapped VictimStore. The spill issues a write access into
 *    the cache hierarchy at the slot's metadata line (WalkSource; live,
 *    above the top of simulated DRAM frames), so spilled metadata
 *    competes for L2/L3 cache capacity like Victima's TLB-block lines;
 *    the spill latency itself is off the translation's critical path
 *    and is not billed.
 *  - On an L2 TLB miss, the store is probed before the page walk. A
 *    hit bills the hierarchy read latency of the slot's line (entering
 *    at the L2 data cache, like page-walker requests) and migrates the
 *    entry back into the TLBs, skipping the walk.
 *
 * What is approximated (see DESIGN.md §16):
 *  - Presence metadata is perfect: the probe is only issued when the
 *    functional store holds a matching entry, so misses cost nothing
 *    (Victima's PTW-cost-predictor false positives are not modeled).
 *  - Store capacity is a fixed direct-mapped array rather than actual
 *    cache ways; occupancy pressure is modeled through the synthetic
 *    line traffic, not through eviction of the metadata by data lines.
 *  - Write hits on CoW-marked spilled entries are not recovered — the
 *    walk-and-fault path runs so privatization stays architectural.
 */

#ifndef BF_TRANSLATE_VICTIMA_HH
#define BF_TRANSLATE_VICTIMA_HH

#include "translate/pipeline.hh"
#include "translate/structures.hh"

namespace bf::translate
{

/** The reference pipeline plus a Victima-style backing store. */
class VictimaBackend : public PipelineBackend
{
  public:
    VictimaBackend(unsigned core_id, const core::MmuParams &params,
                   TranslateStats &stats, stats::StatGroup &group);

    /** Spilled-entry slots in the backing store. */
    static constexpr std::size_t kStoreEntries = 8192;

    /** The backing store (tests inspect spill/shootdown reach). */
    const VictimStore &store() const { return store_; }

  protected:
    void fillL2(const tlb::TlbEntry &entry, const Requester &req,
                WalkSource &src) override;
    bool backfill(const Requester &req, Addr va, AccessType type,
                  int process_bit, WalkSource &src, Cycles now,
                  Cycles &cycles, tlb::TlbEntry &out) override;
    void invalidateExtra(const vm::TlbInvalidate &inv) override;
    void flushExtra() override;
    void extraIo(snap::ArchiveWriter &ar) const override { ar.part(store_); }
    void extraIo(snap::ArchiveReader &ar) override { ar.part(store_); }

  private:
    /** WalkSource metadata line of a store slot. */
    std::uint64_t storeLine(std::size_t slot) const;

    VictimStore store_{ kStoreEntries };
    stats::StatGroup vgroup_;
    stats::Scalar spills_;     //!< L2-TLB evictions parked in the store.
    stats::Scalar probes_;     //!< L2 TLB misses that consulted the store.
    stats::Scalar store_hits_; //!< Walks avoided by a store hit.
};

} // namespace bf::translate

#endif // BF_TRANSLATE_VICTIMA_HH
