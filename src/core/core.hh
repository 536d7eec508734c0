/**
 * @file
 * The timing core: pulls memory references from the scheduled container
 * threads, charges base pipeline time plus the full translation and
 * memory latency of each reference, and multiplexes threads with the OS
 * scheduling quantum (containers are over-subscribed: 2-3 per core).
 */

#ifndef BF_CORE_CORE_HH
#define BF_CORE_CORE_HH

#include <memory>
#include <vector>

#include "common/attrib/attrib.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/mmu.hh"
#include "core/params.hh"
#include "core/thread.hh"
#include "mem/hierarchy.hh"

namespace bf::core
{

/** One out-of-order core plus its MMU and run queue. */
class Core
{
  public:
    Core(unsigned id, const CoreParams &params, const MmuParams &mmu,
         mem::CacheHierarchy &hierarchy, vm::Kernel &kernel,
         stats::StatGroup *parent = nullptr);

    /** Add a container thread to this core's run queue. */
    void addThread(Thread *thread);

    /** Remove all threads (between experiments). */
    void clearThreads();

    /** Whether any unfinished thread remains. */
    bool busy() const;

    /** The core's clock. */
    Cycles now() const { return now_; }

    /** Force the clock (used when cores idle while others run). */
    void syncTo(Cycles target);

    /**
     * Execute until the clock reaches @p until (or the run queue
     * empties). The scheduler rotates threads every quantum.
     *
     * With an active epoch log the core may suspend mid-chunk on a
     * deferred page fault (faultBlocked()); System services the fault
     * single-threaded, calls resolveFault(), and re-invokes runUntil to
     * resume the stalled reference.
     */
    void runUntil(Cycles until);

    /** Suspended on a deferred fault, waiting for System to service it. */
    bool faultBlocked() const { return blocked_; }

    /**
     * Unblock after a deferred fault was serviced: charge the kernel
     * time (it is translation time, as in the serial retry loop) and
     * let the next runUntil re-issue the stalled reference.
     */
    void resolveFault(Cycles fault_cycles);

    /**
     * Bill the weave-phase latency excess of this core's deferred
     * accesses (the DRAM time beyond the bound-phase L3 estimate).
     * @param data_extra excess of data/ifetch accesses.
     * @param walk_extra excess of page-walker accesses.
     */
    void applyWeaveAdjustment(Cycles data_extra, Cycles walk_extra);

    Mmu &mmu() { return *mmu_; }
    unsigned id() const { return id_; }

    /**
     * Attach the core's bound-phase event log (System wires it; null
     * detaches). Forwards to the MMU and keeps the pointer so the core
     * can stamp the issuing tenant's slot onto logged events.
     */
    void
    setEpochLog(EpochLog *log)
    {
        epoch_log_ = log;
        mmu_->setEpochLog(log);
    }

    /**
     * Attach the per-container attribution registry and this core's
     * sink (System wires them before the first run). Forwards to the
     * MMU and keeps the sink for the window-delta booking below.
     */
    void
    setAttrib(attrib::Registry *registry, attrib::CoreSink *sink)
    {
        sink_ = sink;
        mmu_->setAttrib(registry, sink);
        syncAttribWindow();
    }

    /**
     * @{
     * @name Attribution windows
     * The per-tenant mirrors of the access counters are not booked per
     * event: every event between two scheduler switch points belongs to
     * the process the core was running, so the core snapshots the
     * global counters (MMU TranslateStats, walker walks, instructions,
     * miss-latency buckets) and credits the delta to the tenant at slot
     * switches and chunk barriers. flushAttribWindow books the pending
     * window to the current slot and re-bases; syncAttribWindow
     * re-bases without booking (after a stats reset or checkpoint
     * restore rewrote the globals underneath). System calls flush on
     * every core before each Registry::drain, so the tenant subtree is
     * complete whenever it is observable.
     */
    void flushAttribWindow();
    void syncAttribWindow();
    /** @} */

    /** Run queue, in scheduling order (checkpointing walks threads). */
    const std::vector<Thread *> &threads() const { return threads_; }

    /**
     * @{
     * @name Checkpointing
     * Clock, scheduler position, quantum, CPI carry, and the
     * deferred-fault re-issue state, then the MMU (TLBs + PWC). Called
     * at a chunk barrier only, where blocked_ is always false (System's
     * fault loop drains every suspension before the chunk ends) but a
     * stalled reference may still await re-issue — has_pending_ and
     * pending_ref_ travel with the checkpoint so the restored run
     * re-issues it exactly like the uninterrupted one.
     */
    void save(snap::ArchiveWriter &ar) const;
    void restore(snap::ArchiveReader &ar);
    /** @} */

    /** @{ @name Statistics */
    stats::Scalar instructions;
    stats::Scalar mem_refs;
    stats::Scalar busy_cycles;
    stats::Scalar translation_cycles;
    stats::Scalar data_cycles;
    stats::Scalar context_switches;
    /** @} */

    /**
     * Reset every stat in the core's subtree (core, MMU, backend
     * structures, walker) and re-base the attribution window.
     */
    void resetStats();

  private:
    template <class Ar, class Self> static void io(Ar &ar, Self &self);

    unsigned id_;
    CoreParams params_;
    mem::CacheHierarchy &hierarchy_;
    stats::StatGroup stat_group_;
    std::unique_ptr<Mmu> mmu_;
    EpochLog *epoch_log_ = nullptr;
    attrib::CoreSink *sink_ = nullptr;

    /** @{ @name Attribution window state (see flushAttribWindow) */
    int attrib_slot_ = -1; //!< Tenant owning the pending window.
    std::uint64_t attrib_base_[attrib::kNumCounters] = {};
    stats::Distribution attrib_lat_base_; //!< miss_latency snapshot.
    /** Current global counter values, in attrib lane order. */
    void readAttribCounters(std::uint64_t out[attrib::kNumCounters]) const;
    /** @} */

    std::vector<Thread *> threads_;
    std::size_t current_ = 0;
    Cycles now_ = 0;
    Cycles quantum_left_ = 0;
    double cpi_accum_ = 0; //!< Fractional base-CPI carry.

    /** @{ @name Deferred-fault suspension (bound phases only) */
    MemRef pending_ref_{};  //!< The reference stalled on the fault.
    bool blocked_ = false;  //!< Waiting for System to service the fault.
    bool has_pending_ = false; //!< pending_ref_ must be re-issued.
    unsigned pending_retries_ = 0; //!< Convergence guard per reference.
    /** @} */

    /** Advance to the next runnable thread; true if one exists. */
    bool scheduleNext();
};

} // namespace bf::core

#endif // BF_CORE_CORE_HH
