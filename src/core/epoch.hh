/**
 * @file
 * Bound/weave epoch machinery for deterministic parallel simulation.
 *
 * System::run() advances the machine in sync chunks. Within a chunk each
 * core executes a *bound* phase that touches only per-core-private state
 * (L1/L2 caches, TLBs, PWC, MMU caches, per-core stats); everything that
 * would touch a shared level — an L2 cache miss into L3/DRAM, a
 * kernel page fault — is recorded in the core's EpochLog with a
 * deterministic timestamp instead of being performed, and every write
 * that owes peer caches a coherence probe lands in the log's write
 * lane. A *weave* phase then drains the merged logs in canonical
 * (timestamp, core, seq) order against the shared L3, DRAM and kernel,
 * producing the authoritative latencies, fills, LRU updates and
 * statistics, while pool workers drain each peer's coherence probes
 * against the chunk's write lanes concurrently (DESIGN.md §15).
 *
 * Because the per-core bound execution is independent of how cores are
 * scheduled onto host threads, both the fault-service and weave drains
 * use a canonical order, and probe outcomes are order-independent, the
 * simulated machine is byte-identical at every worker count —
 * `workers=1` runs the exact same algorithm inline. The golden-stats
 * gate and test_parallel_system lock this down.
 */

#ifndef BF_CORE_EPOCH_HH
#define BF_CORE_EPOCH_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "vm/kernel.hh"

namespace bf::core
{

/**
 * One L2-miss access deferred to the shared levels. The issuing core's
 * EpochLog appends it during the bound phase; the merge copies it
 * unchanged into the chunk's canonical WeaveStream.
 */
struct EpochEvent
{
    /** @{ @name flags bits */
    static constexpr std::uint8_t write = 1;  //!< Dirties the line.
    static constexpr std::uint8_t walker = 2; //!< Walk step: the DRAM
                                              //!< excess bills translation.
    /** @} */

    /** slot value: not attributed to any tenant. */
    static constexpr std::uint16_t noSlot = 0xffff;

    Cycles ts;          //!< Cycle the access reaches the L3.
    Addr paddr;
    std::uint16_t slot; //!< Issuing tenant's attribution slot.
    std::uint8_t flags;
    std::uint8_t core;  //!< Issuing core.

    bool operator==(const EpochEvent &) const = default;
};

/**
 * The merged canonical access stream of one chunk, pooled across
 * chunks: every L2-miss access of every core in (ts, core, seq) order,
 * replayed against L3/DRAM by CacheHierarchy::weaveSerial.
 */
using WeaveStream = std::vector<EpochEvent>;

/**
 * Per-core event log of one sync chunk. The owning core appends during
 * its bound execution; the weave drains all cores' logs in canonical
 * order. While inactive (outside System::run) the hierarchy and MMU
 * take their historical immediate paths, so direct calls from tests are
 * unchanged.
 *
 * The events' capacity persists across chunks (clearEvents() never
 * shrinks), so steady-state bound phases append without allocating.
 * The per-core issue order — the `seq` tiebreak of the canonical merge
 * key — is the append index itself and is never materialized.
 *
 * Coherence probes are not events: every write the core issues while
 * probes are modeled (L1/L2 hit or deferred miss alike) appends its
 * paddr to a separate untimed write lane. A peer's invalidation
 * outcome does not depend on probe order (see CacheHierarchy::
 * drainProbes), so the lane needs no timestamp and stays out of the
 * canonical merge.
 */
class EpochLog
{
  public:
    /** @param core the issuing core every event is stamped with. */
    explicit EpochLog(unsigned core) : core_(static_cast<std::uint8_t>(core))
    {
        bf_assert(core < 256, "EpochEvent packs core ids in a byte");
    }

    bool active() const { return active_; }
    void activate() { active_ = true; }
    void deactivate() { active_ = false; }

    /**
     * Stamp the attribution slot of the issuing container; every event
     * appended until the next call carries it (the core stamps before
     * each reference issues). The slot rides the log so the weave can
     * bill its DRAM-excess to the issuing tenant (-1 = unattributed).
     */
    void
    setSlot(int slot)
    {
        cur_slot_ = (slot < 0 || slot >= EpochEvent::noSlot)
                        ? EpochEvent::noSlot
                        : static_cast<std::uint16_t>(slot);
    }

    /** Record an L2-miss access deferred to the shared levels. */
    void
    appendAccess(Cycles ts, Addr paddr, AccessType type, bool from_walker)
    {
        std::uint8_t flags =
            type == AccessType::Write ? EpochEvent::write : std::uint8_t(0);
        if (from_walker)
            flags |= EpochEvent::walker;
        events_.push_back({ts, paddr, cur_slot_, flags, core_});
    }

    /** Record a write the peers' private caches must be probed for. */
    void appendWrite(Addr paddr) { writes_.push_back(paddr); }

    /** @{ @name Deferred page fault (at most one; the core suspends) */
    bool faultPending() const { return fault_pending_; }

    void
    deferFault(const vm::DeferredFault &fault, Cycles ts)
    {
        bf_assert(!fault_pending_, "second fault deferred while blocked");
        fault_ = fault;
        fault_ts_ = ts;
        fault_pending_ = true;
    }

    const vm::DeferredFault &fault() const { return fault_; }
    Cycles faultTime() const { return fault_ts_; }
    void clearFault() { fault_pending_ = false; }
    /** @} */

    /** The chunk's events, in issue (= seq) order. */
    const std::vector<EpochEvent> &events() const { return events_; }

    /** Write lane: paddr of every write of the chunk, in issue order. */
    const std::vector<Addr> &writes() const { return writes_; }

    /** Drop drained events and writes; keeps capacity for the next chunk. */
    void
    clearEvents()
    {
        events_.clear();
        writes_.clear();
    }

  private:
    std::vector<EpochEvent> events_;
    std::vector<Addr> writes_;        //!< Write lane (not events).
    std::uint16_t cur_slot_ = EpochEvent::noSlot;
    std::uint8_t core_;
    vm::DeferredFault fault_{};
    Cycles fault_ts_ = 0;
    bool fault_pending_ = false;
    bool active_ = false;
};

/**
 * Merge the per-core epoch logs into @p out in canonical
 * (timestamp, core, seq) order.
 *
 * Each log is already sorted: a core's clock never runs backwards
 * across references, and within one reference events are appended in
 * nondecreasing-timestamp order (walk steps precede the data access
 * they enable), so the append order *is* the (ts, seq) order — asserted
 * here. Merging k sorted runs with a ladder (linear min-scan over one
 * head per core, ties broken by core id; seq ties cannot occur across
 * the merge because a head advances sequentially) therefore reproduces
 * the historical global sort exactly, in O(events × cores) with no
 * comparator calls. Write lanes are not merged.
 */
void mergeEpochLogs(const std::vector<std::unique_ptr<EpochLog>> &logs,
                    WeaveStream &out);

/**
 * Persistent worker pool for the chunk's parallel rounds (bound phase,
 * fault resumes, weave + probe drain).
 *
 * A chunked simulation crosses the fork/join point tens of thousands of
 * times per second, so the pool keeps its threads alive and uses
 * spin-then-yield waits on atomics rather than re-spawning (a condvar
 * handoff costs microseconds per round).
 *
 * Work distribution: static striping. With S stripes (worker threads
 * plus the caller, which is stripe 0), stripe s runs the contiguous
 * block [n*s/S, n*(s+1)/S) in index order. Round items are fully
 * independent and each belongs to exactly one stripe, so which host
 * thread runs an item cannot affect simulated state. Work stealing
 * measured within noise of this on the 8-core cells (EXPERIMENTS.md),
 * so the pool keeps the simpler design.
 *
 * Round isolation: workers signal done_ only after their last item,
 * and run() returns only once every worker has signaled, so no worker
 * can still be reading a round's job when the next one is set up.
 */
class BoundPool
{
  public:
    /** @param extra_workers host threads beyond the calling thread. */
    explicit BoundPool(unsigned extra_workers);
    ~BoundPool();

    BoundPool(const BoundPool &) = delete;
    BoundPool &operator=(const BoundPool &) = delete;

    /**
     * Run fn(0) ... fn(n-1) across the pool plus the calling thread;
     * returns once all have completed. A pool without workers (or a
     * round of one item) runs inline on the caller, in index order.
     */
    void run(unsigned n, const std::function<void(unsigned)> &fn);

  private:
    void workerLoop(unsigned stripe);

    /** Run stripe @p stripe's block of the current round. */
    void runStripe(unsigned stripe) const;

    std::vector<std::thread> threads_;
    std::atomic<std::uint64_t> generation_{0};
    std::atomic<unsigned> done_{0}; //!< Workers finished this round.
    std::atomic<bool> stop_{false};
    const std::function<void(unsigned)> *job_ = nullptr;
    unsigned n_ = 0;
};

} // namespace bf::core

#endif // BF_CORE_EPOCH_HH
