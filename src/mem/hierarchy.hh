/**
 * @file
 * The three-level cache hierarchy of the modeled 8-core server (Table I):
 * per-core 32 KB L1 I+D and 256 KB unified L2, one shared 8 MB L3, and a
 * banked DRAM main memory behind it.
 *
 * The shared L3 is where BabelFish's page-table sharing pays off across
 * cores: a page walk by one container leaves pte_t lines that a walk by
 * another container on another core hits (paper Fig. 7).
 */

#ifndef BF_MEM_HIERARCHY_HH
#define BF_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/epoch.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"

namespace bf::mem
{

/** Where a request was finally served from. */
enum class MemLevel : std::uint8_t
{
    L1,
    L2,
    L3,
    Memory,
};

/** Outcome of one cache-hierarchy access. */
struct MemAccessResult
{
    Cycles latency = 0;
    MemLevel served_by = MemLevel::Memory;
};

/** Parameters of the whole hierarchy (defaults follow Table I). */
struct HierarchyParams
{
    CacheParams l1i{ "l1i", 32 * 1024, 8, 64, 2 };
    CacheParams l1d{ "l1d", 32 * 1024, 8, 64, 2 };
    CacheParams l2{ "l2", 256 * 1024, 8, 64, 8 };
    CacheParams l3{ "l3", 8 * 1024 * 1024, 16, 64, 32 };
    DramParams dram{};
    bool model_coherence = true; //!< Probe-invalidate peers on writes.
};

/** Per-core L1/L2 plus shared L3 and DRAM. */
class CacheHierarchy
{
  public:
    /**
     * @param params cache and memory geometry.
     * @param num_cores number of cores (private cache pairs).
     * @param parent stat group to register under, may be null.
     */
    CacheHierarchy(const HierarchyParams &params, unsigned num_cores,
                   stats::StatGroup *parent = nullptr);

    /**
     * Perform one access from a core.
     *
     * @param core issuing core index.
     * @param paddr physical byte address.
     * @param type read / write / ifetch (selects L1 I vs D).
     * @param now the core's current cycle (for DRAM queueing).
     * @param start_at_l2 skip the L1 (hardware page-walker requests enter
     *        the hierarchy at the L2, as in the paper's Fig. 7).
     * @return latency and serving level.
     */
    MemAccessResult access(unsigned core, Addr paddr, AccessType type,
                           Cycles now, bool start_at_l2 = false);

    /**
     * Attach a core's bound-phase event log (System wires these in).
     * While the log is active, access() stops at the private levels: an
     * L2 miss charges the deterministic L3 access time, appends an event
     * and returns; every write that owes peers a coherence probe lands
     * in the log's write lane. A null or inactive log restores the
     * historical immediate path.
     */
    void
    setEpochLog(unsigned core, core::EpochLog *log)
    {
        epoch_logs_[core] = log;
    }

    /**
     * Per-core and per-tenant DRAM-excess bills of one weave replay,
     * applied by the System after the round. Pooled by the System and
     * reset() per chunk.
     */
    struct WeaveScratch
    {
        std::vector<Cycles> data_extra;          //!< Per core.
        std::vector<Cycles> walk_extra;          //!< Per core.
        /**
         * Per-tenant bills, parallel to data_extra / walk_extra but
         * keyed by the attribution slot the event carries. Sized by
         * reset()'s num_slots, the System's tenant count; the replay
         * bills no tenant for a slot past the end (tests size none).
         */
        std::vector<Cycles> slot_data_extra;
        std::vector<Cycles> slot_walk_extra;

        void
        reset(unsigned num_cores, unsigned num_slots = 0)
        {
            data_extra.assign(num_cores, 0);
            walk_extra.assign(num_cores, 0);
            slot_data_extra.assign(num_slots, 0);
            slot_walk_extra.assign(num_slots, 0);
        }
    };

    /**
     * @{
     * @name Weave replay (DESIGN.md §15)
     *
     * weaveSerial() replays the canonical access stream the merge
     * produced, one event at a time, through sharedAccess(): the same
     * L3 probe+fill and DRAM access an unlogged access() performs, with
     * the event's timestamp as the DRAM arrival cycle. The L3/DRAM
     * stats and LRU clock therefore move exactly as if every logged
     * miss had been served immediately in canonical order. It adds each
     * DRAM latency to the issuing core's and tenant's bill in @p sc.
     *
     * drainProbes() invalidates one peer's L1i, L1d and L2 against the
     * write lanes of every other core's attached epoch log. It touches
     * only that peer's private caches, so the System runs one call per
     * peer on the pool, concurrently with each other and with
     * weaveSerial() (which touches only L3, DRAM and the bills). The
     * outcome is the serial canonical probe drain's: invalidation only
     * moves a line present -> absent, nothing in the weave refills a
     * private level, and an invalidate bumps no LRU state, so whether a
     * peer line dies — and the one count it adds — does not depend on
     * the order its probes arrive in.
     */
    void weaveSerial(const core::WeaveStream &ws, WeaveScratch &sc);
    void drainProbes(unsigned peer);
    /** @} */

    /** Drop every line in every cache. */
    void flushAll();

    unsigned numCores() const { return num_cores_; }

    /** The "caches" stat group (every level and DRAM). */
    stats::StatGroup &stats() { return stat_group_; }

    /** Coherence probes modeled (model_coherence and more than one core). */
    bool coherenceActive() const { return coherence_active_; }

    /**
     * @{
     * @name Checkpointing
     * Delegates to every level (per-core L1 I/D and L2, then L3 and
     * DRAM). Epoch logs are empty at chunk barriers and the coherence
     * flag is configuration-derived, so neither is serialized.
     */
    void save(snap::ArchiveWriter &ar) const;
    void restore(snap::ArchiveReader &ar);
    /** @} */

    /** Direct access for tests. */
    Cache &l1d(unsigned core) { return *l1d_[core]; }
    Cache &l1i(unsigned core) { return *l1i_[core]; }
    Cache &l2(unsigned core) { return *l2_[core]; }
    Cache &l3() { return *l3_; }
    Dram &dram() { return *dram_; }

  private:
    template <class Ar, class Self> static void io(Ar &ar, Self &self);

    HierarchyParams params_;
    unsigned num_cores_;
    bool coherence_active_ = false; //!< model_coherence && num_cores_ > 1.
    stats::StatGroup stat_group_;
    std::vector<std::unique_ptr<stats::StatGroup>> core_groups_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;
    std::unique_ptr<Dram> dram_;
    std::vector<core::EpochLog *> epoch_logs_; //!< Per core; may be null.

    void probeInvalidate(unsigned writer_core, Addr paddr);

    /**
     * The shared levels of one L2 miss: L3 probe+fill and, on an L3
     * miss, the DRAM access arriving at cycle @p at. Both access() and
     * weaveSerial() go through here.
     *
     * @param[out] dram_cycles the DRAM latency, set on an L3 miss only.
     * @return MemLevel::L3 on an L3 hit, else MemLevel::Memory.
     */
    MemLevel sharedAccess(Addr paddr, bool is_write, Cycles at,
                          Cycles &dram_cycles);
};

} // namespace bf::mem

#endif // BF_MEM_HIERARCHY_HH
