/**
 * @file
 * Tests for the trace-driven replay engine (src/replay, DESIGN.md §13):
 *
 *  - the headline fidelity property: replaying a trace at the recording
 *    configuration reproduces the full simulation's per-core L1/L2 TLB
 *    and PWC hit/miss counters (and the miss-latency count and sum)
 *    EXACTLY — for traces recorded at BF_WORKERS 1, 2 and 4, across a
 *    mid-run resetStats boundary;
 *  - schedule sharing: a ReplaySchedule owns its decoded records and
 *    backs concurrent ReplayEngines from multiple threads;
 *  - sweep sanity: growing the L2 TLB associativity at a fixed set
 *    count never increases misses on a fixed trace (LRU stack
 *    inclusion);
 *  - competitor replay: a reference trace replays through the Victima
 *    and coalesced backends' own live structures;
 *  - rejection: traces that cannot be replayed faithfully — truncated
 *    files, limit-clipped recordings, wrong format versions, event
 *    masks missing required kinds, Victima recordings — fail with
 *    clear errors instead of producing silently wrong counters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/trace/trace.hh"
#include "core/system.hh"
#include "replay/replay.hh"
#include "workloads/apps.hh"

using namespace bf;
using namespace bf::core;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

const workloads::AppProfile &
mongodbProfile()
{
    static const workloads::AppProfile profile =
        workloads::AppProfile::mongodb();
    return profile;
}

/** Per-core ground truth pulled from a live full simulation. */
std::vector<replay::Counters>
liveCounters(System &sys)
{
    std::vector<replay::Counters> out;
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        auto &mmu = sys.core(c).mmu();
        replay::Counters k;
        k.l1_hits = mmu.l1_hits.value();
        k.l1_misses = mmu.l1_misses.value();
        k.l2_data_hits = mmu.l2_data_hits.value();
        k.l2_data_misses = mmu.l2_data_misses.value();
        k.l2_instr_hits = mmu.l2_instr_hits.value();
        k.l2_instr_misses = mmu.l2_instr_misses.value();
        k.l2_data_shared_hits = mmu.l2_data_shared_hits.value();
        k.l2_instr_shared_hits = mmu.l2_instr_shared_hits.value();
        k.l2_long_accesses = mmu.l2_long_accesses.value();
        k.walks = mmu.walker().walks.value();
        k.pwc_hits = mmu.pwc().hits.value();
        k.pwc_misses = mmu.pwc().misses.value();
        k.miss_latency_count = mmu.miss_latency.count();
        k.miss_latency_sum = mmu.miss_latency.sum();
        out.push_back(k);
    }
    return out;
}

/**
 * The test_trace.cc workload shape: two mongodb containers per core on
 * a 4-core BabelFish system, traced, with a resetStats between warm-up
 * and measurement (so replay must honor the StatsReset marker). Returns
 * the live per-core counters after the measured phase.
 */
std::vector<replay::Counters>
runTracedMix(unsigned workers, const std::string &trace_path,
             std::uint64_t limit = 0,
             translate::BackendKind backend =
                 translate::BackendKind::BabelFish)
{
    SystemParams params = SystemParams::babelfish();
    params.mmu.backend = backend;
    params.num_cores = 4;
    params.workers = workers;
    params.sync_chunk = 20000;
    params.kernel.mem_frames = 1 << 22;
    params.core.quantum = msToCycles(0.25);
    params.trace_path = trace_path;
    params.trace_limit = limit;

    System sys(params);
    const unsigned n = params.num_cores * 2;
    auto app = workloads::buildApp(sys.kernel(), mongodbProfile(), n, 29);
    auto threads = workloads::makeAppThreads(app, 29);
    for (unsigned i = 0; i < n; ++i)
        sys.addThread(i % params.num_cores, threads[i].get());

    sys.run(msToCycles(0.5));
    sys.resetStats();
    sys.run(msToCycles(1));
    return liveCounters(sys);
}

/** Compare one reconstructed counter set against the live ground truth. */
void
expectEqualCounters(const replay::Counters &live,
                    const replay::Counters &rep, unsigned core,
                    const char *what)
{
    SCOPED_TRACE(std::string(what) + " core " + std::to_string(core));
    // Every counter but accesses, which the live Mmu does not count.
    replay::forEachCounter(
        [&](const char *name, const std::uint64_t &live_v,
            std::uint64_t rep_v) {
            if (&live_v != &live.accesses) {
                EXPECT_EQ(live_v, rep_v) << name;
            }
        },
        live, rep);
}

/** Sum of every `"name":<value>` scalar in a stats JSON dump. */
std::uint64_t
sumStat(const std::string &json, const std::string &name)
{
    const std::string key = "\"" + name + "\":";
    std::uint64_t sum = 0;
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + key.size()))
        sum += std::stoull(json.substr(at + key.size()));
    return sum;
}

/** Replay a trace at its recording config (with optional overrides). */
std::unique_ptr<replay::ReplayEngine>
replayTrace(const std::string &path,
            const std::function<void(replay::ReplayParams &)> &tweak = {})
{
    trace::TraceReader reader(path);
    replay::ReplayParams params =
        replay::paramsFromTrace(reader.header().config);
    if (tweak)
        tweak(params);
    auto engine =
        std::make_unique<replay::ReplayEngine>(params, reader.header());
    engine->run(reader);
    return engine;
}

} // namespace

// ---------------------------------------------------------------------
// Fidelity: replay at the recording config is exact
// ---------------------------------------------------------------------

// Replaying a trace at the configuration embedded in its header
// reproduces the live simulation's post-reset per-core TLB/PWC counters
// exactly — for traces recorded at 1, 2 and 4 bound-phase workers (the
// trace bytes are worker-independent, and so is the replay).
TEST(Replay, MatchesFullSimAtRecordingConfig)
{
    for (unsigned workers : {1u, 2u, 4u}) {
        const std::string path =
            tmpPath("replay-w" + std::to_string(workers) + ".trace");
        const auto live = runTracedMix(workers, path);

        auto engine = replayTrace(path);
        ASSERT_EQ(engine->numCores(), live.size());

        // Internal consistency: replayed == tallied-from-events.
        const auto diffs = engine->validate();
        EXPECT_TRUE(diffs.empty())
            << diffs.size() << " counter(s) diverge, first: "
            << (diffs.empty() ? "" : diffs[0].name);

        // External ground truth: replayed == live full-sim counters.
        for (unsigned c = 0; c < live.size(); ++c) {
            expectEqualCounters(live[c], engine->replayed(c), c,
                                "replayed");
            expectEqualCounters(live[c], engine->recorded(c), c,
                                "recorded-tally");
        }
    }
}

// The replayed stats tree exports the familiar per-core mmu sections.
TEST(Replay, StatsJsonHasMmuSections)
{
    const std::string path = tmpPath("replay-json.trace");
    runTracedMix(1, path);
    auto engine = replayTrace(path);
    const std::string json = engine->statsJson();
    EXPECT_NE(json.find("\"core0\""), std::string::npos);
    EXPECT_NE(json.find("\"mmu\""), std::string::npos);
    EXPECT_NE(json.find("\"l2_4k\""), std::string::npos);
    EXPECT_NE(json.find("\"pwc\""), std::string::npos);
    EXPECT_NE(json.find("\"miss_latency\""), std::string::npos);
}

// A ReplaySchedule owns its records and is immutable after
// construction, so one schedule backs concurrent engines (the BF_JOBS
// sweep pattern): two engines replaying the same shared schedule from
// two threads — with the decoded blocks freed before either runs —
// both reproduce the live counters exactly.
TEST(Replay, ScheduleSharedAcrossThreads)
{
    const std::string path = tmpPath("replay-mt.trace");
    const auto live = runTracedMix(1, path);

    trace::TraceReader reader(path);
    const trace::TraceHeader header = reader.header();
    std::unique_ptr<replay::ReplaySchedule> schedule;
    {
        std::vector<std::vector<trace::Record>> blocks;
        std::vector<trace::Record> block;
        while (reader.nextBlock(block))
            blocks.push_back(std::move(block));
        schedule = std::make_unique<replay::ReplaySchedule>(
            header, std::move(blocks));
        // blocks dies here: the schedule must not reference it.
    }

    const replay::ReplayParams params =
        replay::paramsFromTrace(header.config);
    replay::ReplayEngine a(params, header);
    replay::ReplayEngine b(params, header);
    std::thread ta([&] { a.run(*schedule); });
    std::thread tb([&] { b.run(*schedule); });
    ta.join();
    tb.join();

    for (replay::ReplayEngine *engine : {&a, &b}) {
        EXPECT_TRUE(engine->validate().empty());
        ASSERT_EQ(engine->numCores(), live.size());
        for (unsigned c = 0; c < live.size(); ++c)
            expectEqualCounters(live[c], engine->replayed(c), c,
                                "concurrent replay");
    }
}

// ---------------------------------------------------------------------
// Sweep sanity
// ---------------------------------------------------------------------

// Growing L2 associativity with the set count fixed can only keep or
// shrink the miss counts on a fixed trace (LRU stack inclusion per
// set). Also the sweep never throws: synthesized walks cover accesses
// the recording resolved in its (smaller) TLBs.
TEST(Replay, LargerL2TlbIsMonotonicallyBetter)
{
    const std::string path = tmpPath("replay-mono.trace");
    runTracedMix(1, path);

    std::uint64_t prev_misses = ~std::uint64_t{0};
    for (unsigned assoc : {6u, 12u, 24u}) {
        auto engine = replayTrace(path, [&](replay::ReplayParams &p) {
            // 128 sets at every point: entries scale with assoc.
            for (tlb::TlbParams *tp : {&p.l2_4k, &p.l2_2m, &p.l2_1g}) {
                tp->assoc = assoc;
                tp->entries = 128 * assoc;
            }
        });
        const auto total = engine->replayedTotal();
        const std::uint64_t misses =
            total.l2_data_misses + total.l2_instr_misses;
        EXPECT_LE(misses, prev_misses) << "assoc " << assoc;
        prev_misses = misses;
    }
}

// Replay builds every core's backend with translate::createBackend, so
// a reference trace replays through a competitor's own live structures:
// its stats subgroup appears under each core's mmu group, and Victima's
// backing store converts walks into store hits at a starved L2.
TEST(Replay, CompetitorBackendsUseLiveStructures)
{
    const std::string path = tmpPath("replay-zoo.trace");
    runTracedMix(1, path);
    const auto atStarvedL2 = [&](translate::BackendKind backend) {
        return replayTrace(path, [&](replay::ReplayParams &p) {
            p.backend = backend;
            for (tlb::TlbParams *tp : {&p.l2_4k, &p.l2_2m, &p.l2_1g}) {
                tp->entries = 768;
                tp->assoc = 6;
            }
        });
    };
    const auto reference = atStarvedL2(translate::BackendKind::BabelFish);

    const auto victima = atStarvedL2(translate::BackendKind::Victima);
    const std::string vjson = victima->statsJson();
    EXPECT_NE(vjson.find("\"victima\""), std::string::npos);
    for (const char *name : {"spills", "probes", "store_hits"})
        EXPECT_NE(vjson.find(std::string("\"") + name + "\""),
                  std::string::npos)
            << name;
    EXPECT_GT(sumStat(vjson, "store_hits"), 0u);
    EXPECT_LT(victima->replayedTotal().walks,
              reference->replayedTotal().walks);

    const std::string cjson =
        atStarvedL2(translate::BackendKind::Coalesced)->statsJson();
    EXPECT_NE(cjson.find("\"coalesced\""), std::string::npos);
    for (const char *name : {"range_hits", "range_installs"})
        EXPECT_NE(cjson.find(std::string("\"") + name + "\""),
                  std::string::npos)
            << name;
}

// ---------------------------------------------------------------------
// Rejection of unreplayable traces
// ---------------------------------------------------------------------

// A Victima recording refills from its backing store without a walk,
// which replay cannot re-execute: both the schedule and the engine
// reject its header up front, naming the backend.
TEST(Replay, RejectsVictimaRecording)
{
    const std::string path = tmpPath("replay-victima.trace");
    runTracedMix(1, path, 0, translate::BackendKind::Victima);
    trace::TraceReader reader(path);
    const trace::TraceHeader header = reader.header();
    const auto expectRejected = [](const std::function<void()> &build) {
        try {
            build();
            FAIL() << "victima recording accepted";
        } catch (const replay::ReplayError &err) {
            EXPECT_NE(std::string(err.what()).find("victima"),
                      std::string::npos)
                << err.what();
        }
    };
    expectRejected([&] {
        replay::ReplayEngine engine(replay::paramsFromTrace(header.config),
                                    header);
    });
    expectRejected([&] {
        std::vector<std::vector<trace::Record>> blocks;
        std::vector<trace::Record> block;
        while (reader.nextBlock(block))
            blocks.push_back(std::move(block));
        replay::ReplaySchedule schedule(header, std::move(blocks));
    });
}

// A limit-clipped trace (records dropped by BF_TRACE_LIMIT) is rejected
// at engine construction with a message naming the cause.
TEST(Replay, RejectsLimitClippedTrace)
{
    const std::string path = tmpPath("replay-clipped.trace");
    runTracedMix(1, path, /*limit=*/5000);
    trace::TraceReader reader(path);
    ASSERT_GT(reader.header().dropped_count, 0u);
    const replay::ReplayParams params =
        replay::paramsFromTrace(reader.header().config);
    try {
        replay::ReplayEngine engine(params, reader.header());
        FAIL() << "clipped trace accepted";
    } catch (const replay::ReplayError &err) {
        EXPECT_NE(std::string(err.what()).find("limit-clipped"),
                  std::string::npos);
    }
}

// A trace whose header mask lacks a replay-required event kind is
// rejected, naming the missing kinds. The tracer records every kind,
// so the test patches the mask (u32 LE at header offset 20) of a full
// recording, as an outside file might carry.
TEST(Replay, RejectsInsufficientEventMask)
{
    const std::string path = tmpPath("replay-masked.trace");
    const std::uint32_t no_fill =
        trace::allEvents &
        ~(1u << static_cast<unsigned>(trace::EventType::TlbFill));
    runTracedMix(1, path);
    auto bytes = slurp(path);
    for (unsigned i = 0; i < 4; ++i)
        bytes[20 + i] = static_cast<std::uint8_t>(no_fill >> (8 * i));
    spit(path, bytes);
    trace::TraceReader reader(path);
    const replay::ReplayParams params =
        replay::paramsFromTrace(reader.header().config);
    try {
        replay::ReplayEngine engine(params, reader.header());
        FAIL() << "insufficient event mask accepted";
    } catch (const replay::ReplayError &err) {
        EXPECT_NE(std::string(err.what()).find("tlb_fill"),
                  std::string::npos);
    }
}

// Truncated files die in the reader with a TraceError, and a patched
// format version (a v1 file masquerading) is rejected up front — the
// strict side of the trace-format compatibility contract.
TEST(Replay, RejectsTruncatedAndWrongVersionTraces)
{
    const std::string path = tmpPath("replay-broken.trace");
    runTracedMix(1, path);
    const auto good = slurp(path);

    // Truncated mid-block: the reader throws while replaying.
    spit(path, {good.begin(), good.end() - 7});
    {
        trace::TraceReader reader(path);
        replay::ReplayEngine engine(
            replay::paramsFromTrace(reader.header().config),
            reader.header());
        EXPECT_THROW(engine.run(reader), trace::TraceError);
    }

    // Version byte patched to 1: rejected at open, telling the user to
    // re-record rather than guessing at an old layout.
    auto bad = good;
    bad[8] = 1;
    spit(path, bad);
    try {
        trace::TraceReader reader(path);
        FAIL() << "wrong version accepted";
    } catch (const trace::TraceError &err) {
        EXPECT_NE(std::string(err.what()).find("re-record"),
                  std::string::npos);
    }
}
