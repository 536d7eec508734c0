/**
 * @file
 * The top level: one simulated 8-core server (Table I) — kernel, cache
 * hierarchy, cores with their MMUs — plus the lockstep driver that keeps
 * the cores' clocks loosely synchronized so shared-L3 and DRAM
 * interactions are meaningful.
 *
 * This is the primary public entry point of the library:
 *
 * @code
 *   bf::core::System sys(bf::core::SystemParams::babelfish());
 *   auto ccid = sys.kernel().createGroup("httpd", seed);
 *   ... create processes / threads (see bf::workloads) ...
 *   sys.addThread(core, thread);
 *   sys.run(bf::msToCycles(50));
 * @endcode
 */

#ifndef BF_CORE_SYSTEM_HH
#define BF_CORE_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/attrib/attrib.hh"
#include "common/stats.hh"
#include "common/trace/trace.hh"
#include "core/core.hh"
#include "core/epoch.hh"
#include "core/params.hh"
#include "core/sampler.hh"
#include "mem/hierarchy.hh"
#include "vm/kernel.hh"

namespace bf::core
{

/** One simulated machine. */
class System
{
  public:
    explicit System(const SystemParams &params);

    vm::Kernel &kernel() { return *kernel_; }
    mem::CacheHierarchy &memory() { return *hierarchy_; }
    Core &core(unsigned i) { return *cores_[i]; }
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** Put a workload thread on a core's run queue. */
    void addThread(unsigned core, Thread *thread);

    /**
     * Run for @p duration cycles past the slowest core's current clock,
     * advancing cores in small lockstep chunks.
     *
     * Each chunk executes in two phases (core/epoch.hh): a *bound*
     * phase runs every core on the worker pool (params.workers host
     * threads) touching only per-core-private state and logging
     * shared-level events, then a single-threaded *weave* replays the
     * merged logs in canonical (timestamp, core, seq) order against
     * the shared L3/DRAM. Page faults suspend their core and are
     * serviced between bound rounds in (fault time, core) order. The
     * identical algorithm runs at workers=1, so exported stats are
     * byte-identical at every worker count.
     */
    void run(Cycles duration);

    /**
     * Run until every thread on every core finished (or max cycles).
     * Hitting the cap bumps the `run_capped` stat so truncated runs are
     * detectable in the exported stats (benches surface it).
     */
    void runUntilFinished(Cycles max_cycles);

    /**
     * Reset every statistic (end of warm-up). Recorded time-series
     * samples are kept; the sampler starts a new phase so the series
     * shows warm-up and measurement side by side.
     */
    void resetStats();

    /**
     * Enable periodic sampling: every @p interval cycles the driver
     * snapshots a default probe set (instructions, L2 TLB hits/misses
     * and shared hits split data/instruction, page-walk count and
     * cycles, L2/L3 cache misses, DRAM reads, minor/CoW faults) into
     * sampler(). Call before run(); calling again changes the interval
     * but keeps recorded points.
     */
    void enableSampling(Cycles interval);

    /** The time-series sampler (empty unless enableSampling was called). */
    StatSampler &sampler() { return sampler_; }
    const StatSampler &sampler() const { return sampler_; }

    /**
     * The per-container attribution registry (common/attrib, DESIGN.md
     * §17). Sinks are drained at every chunk barrier, so outside run()
     * the registry always shows the complete, canonical per-tenant
     * totals.
     */
    attrib::Registry &attrib() { return *attrib_; }
    const attrib::Registry &attrib() const { return *attrib_; }

    /**
     * Periodically render the live per-tenant table (bf_top's data
     * source) into @p path: at most every 0.5 s of host time, written
     * atomically (tmp + rename) at a chunk barrier; the first barrier
     * writes at once. Host-side observability only — never touches
     * simulated state. Benches wire BF_TOP.
     */
    void enableTopFile(std::string path);

    /**
     * The event tracer, or nullptr when params.trace_path is empty (or
     * the file could not be opened). Owned by the System; the file is
     * finalized when the System is destroyed.
     */
    trace::Tracer *tracer() { return tracer_.get(); }

    /**
     * @{
     * @name Checkpointing (DESIGN.md §11)
     * saveCheckpoint() serializes the whole machine — kernel, cache
     * hierarchy, cores with TLBs, thread generators, sampler, stats
     * tree — into a versioned archive at @p path (atomic write; false +
     * warning on IO failure). Call only at a chunk boundary, i.e. when
     * run()/runUntilFinished() is not executing.
     *
     * restoreCheckpoint() loads one into an identically configured and
     * populated System (same params, same groups/processes/threads in
     * the same order — benches rebuild this deterministically from the
     * same config). Returns false and leaves the system untouched for
     * any rejected file: bad magic/version/CRC, truncation, or a
     * manifest that does not match this system's configuration — the
     * caller then falls back to a cold start. A corruption discovered
     * after mutation began (valid CRC but internally inconsistent) is
     * fatal with a diagnostic, never a silently wrong run.
     */
    bool saveCheckpoint(const std::string &path) const;
    bool restoreCheckpoint(const std::string &path);
    /** @} */

    /** @{ @name Aggregate counters across cores */
    std::uint64_t totalInstructions() const;
    /** e.g.\ totalTranslateStat(&translate::TranslateStats::l2_data_hits) */
    std::uint64_t totalTranslateStat(
        stats::Scalar translate::TranslateStats::*counter) const;
    /** @} */

    /**
     * Host wall-clock seconds spent in each phase of the chunk loop,
     * accumulated across run()/runUntilFinished() calls (never reset by
     * resetStats — this is host-side observability, not a simulated
     * stat). fault_seconds covers the whole fault-service block,
     * including the pooled bound re-runs of unblocked cores, and
     * fault_service_seconds only its single-threaded service loops (so
     * the resume time is the difference); bound_seconds is the bound
     * dispatch; merge_seconds is the canonical merge inside the weave
     * round and weave_seconds the rest of that round (L3/DRAM replay,
     * the concurrent per-peer probe drains and billing).
     * bench_simspeed surfaces these as the per-phase Amdahl breakdown.
     */
    struct PhaseTimes
    {
        double bound_seconds = 0;
        double fault_seconds = 0;
        double fault_service_seconds = 0; //!< Part of fault_seconds.
        double merge_seconds = 0;
        double weave_seconds = 0;
    };
    const PhaseTimes &phaseTimes() const { return phase_times_; }

    /** Root of the statistics tree ("system."). */
    stats::StatGroup &stats() { return stat_group_; }
    const stats::StatGroup &stats() const { return stat_group_; }

    const SystemParams &params() const { return params_; }

    /** Times runUntilFinished gave up at its cycle cap. */
    stats::Scalar run_capped;

  private:
    SystemParams params_;
    stats::StatGroup stat_group_;
    std::unique_ptr<vm::Kernel> kernel_;
    std::unique_ptr<mem::CacheHierarchy> hierarchy_;
    std::vector<std::unique_ptr<Core>> cores_;
    StatSampler sampler_;
    std::unique_ptr<trace::Tracer> tracer_;
    /** Built after the cores: its stats group follows theirs. */
    std::unique_ptr<attrib::Registry> attrib_;

    /** @{ @name Live bf_top table (enableTopFile) */
    std::string top_path_;
    double top_last_write_ = 0;    //!< Host seconds since top_start_.
    double top_start_host_ = 0;    //!< steady_clock origin, seconds.
    std::uint64_t top_instr_base_ = 0; //!< Instructions at enable time.
    void maybeWriteTop();
    /** @} */

    /** @{ @name Two-phase chunk execution (see core/epoch.hh) */
    std::vector<std::unique_ptr<EpochLog>> epoch_logs_; //!< Per core.
    std::unique_ptr<BoundPool> pool_;

    WeaveStream weave_stream_; //!< Merged canonical stream, pooled.
    mem::CacheHierarchy::WeaveScratch weave_scratch_; //!< Pooled.

    /** A core suspended on a deferred fault, keyed for service order. */
    struct PendingFault
    {
        Cycles ts;
        unsigned core;
    };
    std::vector<PendingFault> pending_faults_; //!< Reused across chunks.

    PhaseTimes phase_times_;

    /** Advance every core to @p barrier: bound, fault service, weave. */
    void runChunk(Cycles barrier);
    /**
     * Flush every core's pending attribution window, then fold the
     * per-core sinks into the registry's tenant scalars. Single-
     * threaded, fixed core order. Const because it only moves
     * already-earned credit between observability mirrors
     * (saveCheckpoint needs the complete totals).
     */
    void drainAttrib() const;

    /**
     * @{
     * @name Checkpoint layout (common/snapshot.hh)
     * manifestIo: the MANI section, everything a restore checks before
     * it mutates any state. stateIo: the sections after it.
     */
    template <class Ar> void manifestIo(Ar &ar) const;
    template <class Ar, class Self> static void stateIo(Ar &ar, Self &self);
    /** @} */
    /**
     * Replay the merged logs in canonical order against L3/DRAM while
     * pool workers drain each peer's coherence probes (byte-identical
     * at any worker count — DESIGN.md §15).
     */
    void weave();
    /** @} */
};

} // namespace bf::core

#endif // BF_CORE_SYSTEM_HH
