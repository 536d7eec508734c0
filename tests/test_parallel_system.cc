/**
 * @file
 * Determinism tests for the parallel (bound/weave) execution mode.
 *
 * The System runs the same two-phase algorithm at every worker count:
 * the bound phase only partitions per-core-private work across host
 * threads, faults are serviced in a canonical serialized order, and the
 * weave phase replays shared-level events in (timestamp, core, seq)
 * order. Consequence: the full architectural stats tree must be
 * byte-identical across BF_WORKERS — that is the property these tests
 * pin down, on a seeded multi-container mix that exercises TLB misses,
 * page walks, deferred faults, and shared L3/DRAM traffic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/stats_export.hh"
#include "core/epoch.hh"
#include "core/system.hh"
#include "workloads/apps.hh"

using namespace bf;
using namespace bf::core;

namespace
{

struct MixResult
{
    std::string stats_json;     // full tree, serialized after measure
    std::uint64_t faults = 0;   // kernel faults during the measured run
    std::uint64_t instructions = 0;
};

/**
 * The seeded workload: two co-located app containers per core on a
 * 4-core BabelFish system. Warm, reset stats, then measure — exactly
 * the shape the benches use, shrunk to test size.
 */
MixResult
runMix(unsigned workers, std::uint64_t seed = 29)
{
    SystemParams params = SystemParams::babelfish();
    params.num_cores = 4;
    params.workers = workers;
    params.sync_chunk = 20000;
    params.kernel.mem_frames = 1 << 22;
    params.core.quantum = msToCycles(0.25);
    System sys(params);

    const unsigned n = params.num_cores * 2;
    auto app = workloads::buildApp(sys.kernel(),
                                   workloads::AppProfile::mongodb(), n,
                                   seed);
    auto threads = workloads::makeAppThreads(app, seed);
    for (unsigned i = 0; i < n; ++i)
        sys.addThread(i % params.num_cores, threads[i].get());

    sys.run(msToCycles(1));
    sys.resetStats();
    const auto faults_before = sys.kernel().minor_faults.value() +
                               sys.kernel().cow_faults.value() +
                               sys.kernel().major_faults.value();
    sys.run(msToCycles(2));

    MixResult r;
    r.faults = sys.kernel().minor_faults.value() +
               sys.kernel().cow_faults.value() +
               sys.kernel().major_faults.value() - faults_before;
    r.instructions = sys.totalInstructions();
    r.stats_json = stats::toJsonString(sys.stats());
    return r;
}

constexpr Addr kSweepVa = 0x7f00'0000'0000ull;

/**
 * A container that faults on every third reference: it sweeps fresh
 * pages of a shared file mapping (interleaved with a sibling core's
 * sweep, so some faults race a peer's install), and writes and reads a
 * small hot set every core shares, so probes cross cores too.
 */
class SweepThread : public Thread
{
  public:
    SweepThread(vm::Process *proc, unsigned core)
        : proc_(proc), core_(core), name_("sweep" + std::to_string(core))
    {}

    vm::Process *process() override { return proc_; }
    const std::string &name() const override { return name_; }

    bool
    next(MemRef &ref) override
    {
        const std::uint64_t i = issued_++;
        const Addr hot = kSweepVa + ((i * 7 + core_) % 64) * 64;
        switch (i % 3) {
          case 0:
            ref.va = kSweepVa + ((i / 3) * 2 + 1 + (core_ & 1)) *
                                    pageBytes(PageSize::Size4K);
            ref.type = (i / 3) % 2 ? AccessType::Write : AccessType::Read;
            break;
          case 1:
            ref.va = hot;
            ref.type = AccessType::Write;
            break;
          default:
            ref.va = hot;
            ref.type = AccessType::Read;
            break;
        }
        ref.instrs = 20;
        return true;
    }

  private:
    vm::Process *proc_;
    unsigned core_;
    std::string name_;
    std::uint64_t issued_ = 0;
};

/** Faults taken by one core's MMU, of every kind. */
std::uint64_t
coreFaults(System &sys, unsigned core)
{
    const Mmu &mmu = sys.core(core).mmu();
    return mmu.minor_faults.value() + mmu.major_faults.value() +
           mmu.cow_faults.value() + mmu.shared_installs.value();
}

} // namespace

// The headline property: one algorithm, any worker count, one stats
// tree. Byte-for-byte, over every counter in the system.
TEST(ParallelSystem, WorkersByteIdentical)
{
    const MixResult w1 = runMix(1);
    const MixResult w2 = runMix(2);
    const MixResult w4 = runMix(4);
    EXPECT_EQ(w1.stats_json, w2.stats_json);
    EXPECT_EQ(w1.stats_json, w4.stats_json);
}

// A deliberately skewed placement — most containers piled onto core
// 0, the rest nearly idle — makes the static stripes maximally
// unbalanced: the stripe holding core 0 finishes long after the others.
// Which host thread simulates a core must not matter: the stats tree
// stays byte-identical at every worker count.
TEST(ParallelSystem, UnevenLoadByteIdentical)
{
    const auto run = [](unsigned workers) {
        SystemParams params = SystemParams::babelfish();
        params.num_cores = 4;
        params.workers = workers;
        params.sync_chunk = 20000;
        params.kernel.mem_frames = 1 << 22;
        params.core.quantum = msToCycles(0.25);
        System sys(params);

        const unsigned n = 8;
        auto app = workloads::buildApp(sys.kernel(),
                                       workloads::AppProfile::mongodb(),
                                       n, 31);
        auto threads = workloads::makeAppThreads(app, 31);
        // Five containers on core 0, one each on cores 1-3.
        for (unsigned i = 0; i < n; ++i)
            sys.addThread(i < 5 ? 0 : i - 4, threads[i].get());

        sys.run(msToCycles(1));
        sys.resetStats();
        sys.run(msToCycles(2));
        return stats::toJsonString(sys.stats());
    };
    const std::string w1 = run(1);
    EXPECT_EQ(w1, run(2));
    EXPECT_EQ(w1, run(4));
}

// Workers are clamped to the core count; an oversized request behaves
// like workers == num_cores and still matches the serial tree.
TEST(ParallelSystem, OversubscribedWorkersClamped)
{
    const MixResult w1 = runMix(1);
    const MixResult w16 = runMix(16);
    EXPECT_EQ(w1.stats_json, w16.stats_json);
}

// Host-thread scheduling must not leak into results: repeated runs at
// the same worker count are identical, not merely close.
TEST(ParallelSystem, RunToRunStable)
{
    const MixResult a = runMix(4);
    const MixResult b = runMix(4);
    EXPECT_EQ(a.stats_json, b.stats_json);
}

// Different seeds must still produce different runs — the identity
// above is determinism, not a degenerate constant workload.
TEST(ParallelSystem, SeedChangesRun)
{
    const MixResult a = runMix(4, 29);
    const MixResult b = runMix(4, 30);
    EXPECT_NE(a.stats_json, b.stats_json);
}

// The byte-identity claims above are only meaningful if the hard part
// actually happened: the measured window must contain page faults
// (serviced through the deferred single-threaded path) and real work.
TEST(ParallelSystem, DeferredFaultPathExercised)
{
    const MixResult w4 = runMix(4);
    EXPECT_GT(w4.faults, 0u);
    EXPECT_GT(w4.instructions, 100'000u);
}

// Multi-fault rounds: every core faults in the bound phase of the first
// chunk, so the first service round holds all of them, and each faults
// again while resumed — the pooled resume runs several cores per round,
// round after round. The stats tree is still byte-identical at every
// worker count.
TEST(ParallelSystem, MultiFaultRoundsByteIdentical)
{
    const auto run = [](unsigned workers) {
        SystemParams params = SystemParams::babelfish();
        params.num_cores = 4;
        params.workers = workers;
        params.sync_chunk = 20000;
        params.kernel.mem_frames = 1 << 22;
        System sys(params);

        const Ccid ccid = sys.kernel().createGroup("g", 1);
        auto *file = sys.kernel().createFile("f", 64 << 20);
        file->preload(sys.kernel().frames());
        std::vector<std::unique_ptr<SweepThread>> threads;
        for (unsigned c = 0; c < params.num_cores; ++c) {
            vm::Process *proc = sys.kernel().createProcess(
                ccid, std::string("p").append(std::to_string(c)));
            sys.kernel().mmapObject(*proc, file, kSweepVa, 64 << 20, 0,
                                    true, false, true);
            threads.push_back(std::make_unique<SweepThread>(proc, c));
            sys.addThread(c, threads.back().get());
        }

        // One chunk: a core's first fault of a chunk is always parked
        // by the bound phase, so two faults on every core mean a round
        // of all four cores and re-faults during the resumes.
        sys.run(params.sync_chunk);
        for (unsigned c = 0; c < params.num_cores; ++c)
            EXPECT_GE(coreFaults(sys, c), 2u) << "core " << c;

        sys.run(msToCycles(0.2));
        return stats::toJsonString(sys.stats());
    };
    const std::string w1 = run(1);
    EXPECT_EQ(w1, run(2));
    EXPECT_EQ(w1, run(4));
}

// BoundPool::run calls every index of [0, n) exactly once, whatever
// the stripe count — rounds smaller than the pool included — and
// across 1000 back-to-back rounds on one pool, so an item leaking into
// the next round (run twice, or run with the wrong round's job) shows
// up as a miscount.
TEST(BoundPool, RunsEveryIndexExactlyOnce)
{
    const unsigned sizes[] = {0, 1, 2, 3, 4, 5, 9, 17};
    constexpr unsigned kMaxN = 17;
    for (const unsigned extra_workers : {0u, 1u, 3u}) {
        BoundPool pool(extra_workers);
        std::vector<std::atomic<unsigned>> calls(kMaxN);
        std::atomic<unsigned> out_of_range{0};
        for (unsigned round = 0; round < 1000; ++round) {
            const unsigned n = sizes[round % std::size(sizes)];
            for (auto &c : calls)
                c.store(0, std::memory_order_relaxed);
            pool.run(n, [&](unsigned i) {
                if (i < n)
                    calls[i].fetch_add(1, std::memory_order_relaxed);
                else
                    out_of_range.fetch_add(1, std::memory_order_relaxed);
            });
            for (unsigned i = 0; i < kMaxN; ++i) {
                ASSERT_EQ(calls[i].load(std::memory_order_relaxed),
                          i < n ? 1u : 0u)
                    << "workers " << extra_workers << ", round " << round
                    << ", n " << n << ", index " << i;
            }
            ASSERT_EQ(out_of_range.load(std::memory_order_relaxed), 0u)
                << "workers " << extra_workers << ", round " << round;
        }
    }
}
