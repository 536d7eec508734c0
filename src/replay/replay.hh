/**
 * @file
 * Trace-driven replay of the translation pipeline (DESIGN.md §13).
 *
 * A ReplayEngine consumes a format-v2 trace (common/trace) and re-executes
 * the recorded translation-lookup sequence through freshly constructed
 * live translation backends (translate::createBackend, one per core),
 * whose misses walk through a replay WalkSource — the recorded walk, or
 * one synthesized from the trace — instead of the kernel's page tables.
 * No cores, caches or DRAM are simulated. At the recording
 * configuration (the geometry embedded in the trace header) the replayed
 * TLB and PWC hit/miss counters match the full simulation exactly; at a
 * swept configuration they answer "what would this geometry have done on
 * the same access stream", with walk latencies approximated from the
 * recorded serving levels.
 *
 * What replays exactly, what is approximate, and the trace-format
 * compatibility contract are documented in DESIGN.md §13.
 */

#ifndef BF_REPLAY_REPLAY_HH
#define BF_REPLAY_REPLAY_HH

#include <concepts>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/trace/trace.hh"
#include "common/types.hh"
#include "core/params.hh"

namespace bf::replay
{

/** Any condition that makes a trace unreplayable. */
class ReplayError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Configuration of the replayed machine: the MmuParams each core's live
 * backend is built from, plus the replay-only knobs below. Defaults come
 * from the trace header via paramsFromTrace(); sweeps override
 * individual structures (or the backend) before constructing the
 * engine. The mode flags (babelfish, aslr, force_long_l2) are fixed by
 * the recording and not sweepable.
 *
 * Setting `backend` to a competitor asks "what would a Victima/coalesced
 * design have done on this access stream"; the competitor's own
 * structures and stats run unchanged, with two approximations where the
 * trace lacks the information:
 *  - Victima store probes bill mem_level_cycles[1] (the L2 data array),
 *    and spills model no cache occupancy;
 *  - traces record no physical frames, so replayed fills carry their
 *    VPN as the PFN: coalesced-run detection sees VA adjacency as the
 *    PFN-adjacency proxy, an optimistic bound on coalescing.
 * Validation (replayed == recorded) only holds for the backend and
 * geometry of the recording.
 */
struct ReplayParams : core::MmuParams
{
    /**
     * Modeled O-PC bitmask width. Narrower than the recorded 32 bits
     * converts shared entries whose recorded PC bitmask overflows the
     * width into private (owned) entries at fill time — the kernel's
     * per-process fallback, approximated TLB-side (DESIGN.md §13).
     */
    unsigned opc_width = 32;

    /**
     * Synthetic per-MemLevel walk-step latencies (L1/L2/L3/Memory),
     * used only for walk steps whose PWC outcome diverges from the
     * recording — i.e. only when sweeping away from the recording
     * config. Concordant walks reuse the recorded cycle counts.
     */
    Cycles mem_level_cycles[4] = {4, 16, 40, 160};
};

/** Build the recording-config ReplayParams from a trace header config. */
ReplayParams paramsFromTrace(const trace::TraceConfig &config);

/**
 * The counters replay reconstructs, per core. "Recorded" values are
 * tallied from the trace events themselves; "replayed" values come from
 * the replayed backends. At the recording config the two must be equal
 * (that is what bf_replay --validate checks). Named fields for readers
 * of one value; forEachCounter for every consumer of them all.
 */
struct Counters
{
    std::uint64_t accesses = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t l2_data_hits = 0;
    std::uint64_t l2_data_misses = 0;
    std::uint64_t l2_instr_hits = 0;
    std::uint64_t l2_instr_misses = 0;
    std::uint64_t l2_data_shared_hits = 0;
    std::uint64_t l2_instr_shared_hits = 0;
    std::uint64_t l2_long_accesses = 0;
    std::uint64_t walks = 0;
    std::uint64_t pwc_hits = 0;
    std::uint64_t pwc_misses = 0;
    std::uint64_t miss_latency_count = 0;
    std::uint64_t miss_latency_sum = 0;

    Counters &operator+=(const Counters &o);
};

/**
 * The one description of Counters: visit(name, c.field...) for every
 * counter in member order, over one or more Counters in lockstep
 * (operator+= and ReplayEngine::validate pair two). The names are the
 * ones bf_replay prints and validate() reports. accesses leads: it
 * counts access units, which the live Mmu has no counter for, so
 * validate() and the live comparisons skip it.
 */
template <typename Visit, typename... C>
    requires(std::same_as<std::remove_const_t<C>, Counters> && ...)
void
forEachCounter(Visit &&visit, C &...c)
{
    visit("accesses", c.accesses...);
    visit("l1_hits", c.l1_hits...);
    visit("l1_misses", c.l1_misses...);
    visit("l2_data_hits", c.l2_data_hits...);
    visit("l2_data_misses", c.l2_data_misses...);
    visit("l2_instr_hits", c.l2_instr_hits...);
    visit("l2_instr_misses", c.l2_instr_misses...);
    visit("l2_data_shared_hits", c.l2_data_shared_hits...);
    visit("l2_instr_shared_hits", c.l2_instr_shared_hits...);
    visit("l2_long_accesses", c.l2_long_accesses...);
    visit("walks", c.walks...);
    visit("pwc_hits", c.pwc_hits...);
    visit("pwc_misses", c.pwc_misses...);
    visit("miss_latency_count", c.miss_latency_count...);
    visit("miss_latency_sum", c.miss_latency_sum...);
}

/** One counter whose replayed value diverged from the recorded one. */
struct CounterDiff
{
    std::string name; //!< e.g. "core0.l1_hits".
    unsigned core = 0;
    std::uint64_t recorded = 0;
    std::uint64_t replayed = 0;
};

/**
 * The analyzed form of one decoded trace — everything replay derives
 * from the records alone, independent of the machine configuration:
 *
 *  - per block, the per-core causal streams (seq order), their
 *    exec/span segmentation and the fault-service round order;
 *  - the synthesis knowledge: leaf attributes of every recorded
 *    TlbFill and page-table entry addresses of every recorded walk
 *    step, used to synthesize walks a swept geometry takes where the
 *    recording hit (learned from the whole trace up front — replay is
 *    offline, so the full fill history is available).
 *
 * A design-space sweep builds one schedule and shares it (read-only,
 * thread-safe) across every ReplayEngine instead of re-deriving all of
 * this per point. The schedule owns its copy of the decoded records:
 * once constructed it is self-contained and immutable, so concurrent
 * run(schedule) calls from different engines (e.g. a BF_JOBS sweep
 * pool) need no external synchronization and the caller's block
 * vectors may be freed or reused immediately.
 */
class ReplaySchedule
{
  public:
    /**
     * @param header decoded trace header (core count + mode flags).
     * @param blocks every decoded block of the trace, in file order;
     *        copied into the schedule (the caller's vector is not
     *        referenced after construction).
     * @throws ReplayError on an unreplayable trace (see ReplayEngine)
     *         or records that cannot be scheduled.
     */
    ReplaySchedule(const trace::TraceHeader &header,
                   const std::vector<std::vector<trace::Record>> &blocks);

    /** As above, but takes ownership of the decoded blocks directly. */
    ReplaySchedule(const trace::TraceHeader &header,
                   std::vector<std::vector<trace::Record>> &&blocks);
    ~ReplaySchedule();

    ReplaySchedule(const ReplaySchedule &) = delete;
    ReplaySchedule &operator=(const ReplaySchedule &) = delete;

    unsigned numCores() const;

  private:
    friend class ReplayEngine;
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Replays one trace against one machine configuration. */
class ReplayEngine
{
  public:
    /**
     * @param params machine configuration to replay against.
     * @param header decoded trace header; construction throws
     *        ReplayError when the trace cannot be replayed (dropped
     *        records, a required event kind missing from the mask, or
     *        a Victima recording, whose backing-store refills skip the
     *        walk replay re-executes).
     */
    ReplayEngine(const ReplayParams &params,
                 const trace::TraceHeader &header);
    ~ReplayEngine();

    ReplayEngine(const ReplayEngine &) = delete;
    ReplayEngine &operator=(const ReplayEngine &) = delete;

    /**
     * Replay every block of @p reader: decodes the whole trace, builds
     * a ReplaySchedule and runs it. @throws ReplayError.
     */
    void run(trace::TraceReader &reader);

    /**
     * Replay a precomputed schedule (same result as run(reader) on the
     * trace it was built from, minus the re-derivation cost). The
     * schedule's core count must match the engine's. The schedule is
     * only read: any number of engines may run the same schedule from
     * different threads concurrently, one engine per thread.
     */
    void run(const ReplaySchedule &schedule);

    unsigned numCores() const;

    /** @{ @name Reconstructed counters */
    Counters replayed(unsigned core) const;
    Counters recorded(unsigned core) const;
    Counters replayedTotal() const;
    Counters recordedTotal() const;
    /** @} */

    /**
     * Compare replayed against recorded counters, per core. Empty when
     * the replay reproduced the recording exactly — guaranteed at the
     * recording config, meaningless (and nonempty) under sweeps.
     */
    std::vector<CounterDiff> validate() const;

    /**
     * The replayed stats tree rendered as JSON — the same section shape
     * as a full simulation's per-core mmu group (the backend's tlb/pwc
     * and competitor subgroups, hit/miss scalars, miss_latency
     * distribution).
     */
    std::string statsJson() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace bf::replay

#endif // BF_REPLAY_REPLAY_HH
