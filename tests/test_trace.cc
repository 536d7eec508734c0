/**
 * @file
 * Tests for the deterministic translation-pipeline event tracing
 * (src/common/trace, DESIGN.md §12) and the Distribution stat type it
 * introduced, bottom-up:
 *
 *  - Tracer/TraceReader unit round trip: canonical (ts, core, seq)
 *    merge order, header bookkeeping, limit truncation, and
 *    corruption rejection;
 *  - the headline system property: on a seeded multi-container mix the
 *    trace *file bytes* are identical at BF_WORKERS 1, 2 and 4 — same
 *    bar the stats tree already meets (test_parallel_system.cc);
 *  - tracing is pure observability: the exported stats tree is
 *    byte-identical whether a trace is being captured or not;
 *  - Distribution: JSON export shape and snapshot round trip.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/stats_export.hh"
#include "common/trace/trace.hh"
#include "core/system.hh"
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

/** Read every record of a trace, in file order. */
std::vector<trace::Record>
readAll(const std::string &path)
{
    trace::TraceReader reader(path);
    std::vector<trace::Record> all, block;
    while (reader.nextBlock(block))
        all.insert(all.end(), block.begin(), block.end());
    return all;
}

/** Threads keep a reference to the profile: it must outlive them. */
const workloads::AppProfile &
mongodbProfile()
{
    static const workloads::AppProfile profile =
        workloads::AppProfile::mongodb();
    return profile;
}

/**
 * The test_parallel_system.cc workload shape with tracing attached:
 * two mongodb containers per core on a 4-core BabelFish system, warm
 * then measure. Returns the exported stats tree; the trace file is
 * finalized when the System goes out of scope here.
 */
std::string
runTracedMix(unsigned workers, const std::string &trace_path)
{
    SystemParams params = SystemParams::babelfish();
    params.num_cores = 4;
    params.workers = workers;
    params.sync_chunk = 20000;
    params.kernel.mem_frames = 1 << 22;
    params.core.quantum = msToCycles(0.25);
    params.trace_path = trace_path;

    System sys(params);
    const unsigned n = params.num_cores * 2;
    auto app = workloads::buildApp(sys.kernel(), mongodbProfile(), n, 29);
    auto threads = workloads::makeAppThreads(app, 29);
    for (unsigned i = 0; i < n; ++i)
        sys.addThread(i % params.num_cores, threads[i].get());

    sys.run(msToCycles(0.5));
    sys.resetStats();
    sys.run(msToCycles(1));
    return stats::toJsonString(sys.stats());
}

} // namespace

// ---------------------------------------------------------------------
// Tracer / TraceReader unit round trip
// ---------------------------------------------------------------------

// Records fed out of timestamp order across two cores come back in
// canonical (ts, core, seq) order with every field intact.
TEST(Tracer, CanonicalMergeRoundTrip)
{
    const std::string path = tmpPath("unit.trace");
    {
        trace::Tracer tracer(path, 2);
        ASSERT_TRUE(tracer.ok());
        // Core 1 logs first and "later" — the merge must not care.
        tracer.record(1, trace::EventType::TlbMiss, 500, /*ccid=*/7,
                      /*pid=*/42, 0xdead000, /*arg=*/0,
                      trace::flagWrite);
        tracer.record(1, trace::EventType::WalkEnd, 560, 7, 42,
                      0xdead000, /*arg=*/60, /*flags=*/0);
        tracer.record(0, trace::EventType::TlbL1Hit, 100, 3, 41,
                      0xbeef000);
        // Same timestamp on both cores: core breaks the tie.
        tracer.record(0, trace::EventType::TlbL2Hit, 500, 3, 41,
                      0xbeef000, 0, trace::flagSharedHit);
        tracer.flushBarrier();
        tracer.finish();
        EXPECT_EQ(tracer.written(), 4u);
        EXPECT_EQ(tracer.dropped(), 0u);
    }

    const auto result = trace::validateTrace(path);
    EXPECT_EQ(result.records, 4u);
    EXPECT_EQ(result.blocks, 1u);

    const auto recs = readAll(path);
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs[0].ts, 100u);
    EXPECT_EQ(recs[0].core, 0u);
    EXPECT_EQ(recs[0].type,
              static_cast<std::uint8_t>(trace::EventType::TlbL1Hit));
    EXPECT_EQ(recs[0].vpage, 0xbeef000ull >> 12);
    EXPECT_EQ(recs[0].ccid, 3u);
    EXPECT_EQ(recs[0].pid, 41u);
    EXPECT_EQ(recs[1].ts, 500u); // ts tie: core 0 before core 1
    EXPECT_EQ(recs[1].core, 0u);
    EXPECT_EQ(recs[1].flags, trace::flagSharedHit);
    EXPECT_EQ(recs[2].ts, 500u);
    EXPECT_EQ(recs[2].core, 1u);
    EXPECT_EQ(recs[2].flags, trace::flagWrite);
    EXPECT_EQ(recs[3].ts, 560u);
    EXPECT_EQ(recs[3].arg, 60u);

    trace::TraceReader reader(path);
    EXPECT_EQ(reader.header().num_cores, 2u);
    EXPECT_EQ(reader.header().record_count, 4u);
    EXPECT_EQ(reader.header().dropped_count, 0u);
}

// The record limit truncates at the canonical merge order, counting the
// excess in the header instead of writing it.
TEST(Tracer, LimitTruncatesDeterministically)
{
    const std::string path = tmpPath("limited.trace");
    {
        trace::Tracer tracer(path, 1, /*limit=*/3);
        for (std::uint64_t i = 0; i < 10; ++i)
            tracer.record(0, trace::EventType::TlbL1Hit, 10 * i, 0, 1,
                          0x1000);
        tracer.finish();
        EXPECT_EQ(tracer.written(), 3u);
        EXPECT_EQ(tracer.dropped(), 7u);
    }
    trace::TraceReader reader(path);
    EXPECT_EQ(reader.header().record_count, 3u);
    EXPECT_EQ(reader.header().dropped_count, 7u);
    EXPECT_EQ(readAll(path).size(), 3u);
    EXPECT_NO_THROW(trace::validateTrace(path));
}

// Corrupted input throws TraceError from the reader/validator, never a
// crash or a silently wrong decode.
TEST(Tracer, CorruptedFileRejected)
{
    const std::string path = tmpPath("corrupt.trace");
    {
        trace::Tracer tracer(path, 1);
        for (std::uint64_t i = 0; i < 5; ++i)
            tracer.record(0, trace::EventType::TlbMiss, i, 0, 1, 0x1000);
        tracer.finish();
    }
    const std::vector<std::uint8_t> good = slurp(path);

    // Bad magic.
    auto bad = good;
    bad[0] ^= 0xff;
    spit(path, bad);
    EXPECT_THROW(trace::validateTrace(path), trace::TraceError);

    // Truncated mid-record.
    spit(path, {good.begin(), good.end() - 7});
    EXPECT_THROW(trace::validateTrace(path), trace::TraceError);

    // Broken block framing.
    bad = good;
    bad[trace::headerBytes] ^= 0x01;
    spit(path, bad);
    EXPECT_THROW(trace::validateTrace(path), trace::TraceError);

    // Missing file.
    EXPECT_THROW(trace::validateTrace(tmpPath("missing.trace")),
                 trace::TraceError);
}

// v3 stamps the container-attribution slot into the record's final u16
// (v2's zero pad) via the pid → slot resolver; unresolvable pids keep
// noCslot, and the value round-trips through the file.
TEST(Tracer, CslotStampedAndRoundTrips)
{
    const std::string path = tmpPath("cslot.trace");
    {
        trace::Tracer tracer(path, 1);
        tracer.setSlotLookup([](std::uint32_t pid) {
            return pid == 42 ? 3 : -1;
        });
        tracer.record(0, trace::EventType::TlbMiss, 10, 0, 42, 0x1000);
        tracer.record(0, trace::EventType::TlbMiss, 20, 0, 99, 0x2000);
        tracer.finish();
    }
    const auto recs = readAll(path);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].cslot, 3u);
    EXPECT_EQ(recs[1].cslot, trace::noCslot);
    EXPECT_NO_THROW(trace::validateTrace(path));
}

// Reading a v2 file still works — every byte layout is identical — but
// the pad-turned-cslot field is forced to noCslot so old traces can
// never fabricate an attribution to slot 0 (or whatever the pad held).
TEST(Tracer, V2FilesReadWithCslotForcedToNone)
{
    const std::string path = tmpPath("v2compat.trace");
    {
        trace::Tracer tracer(path, 1);
        tracer.setSlotLookup([](std::uint32_t) { return 5; });
        tracer.record(0, trace::EventType::TlbMiss, 10, 0, 42, 0x1000);
        tracer.finish();
    }
    auto bytes = slurp(path);
    bytes[8] = 2; // version word is little-endian u32 at offset 8
    spit(path, bytes);

    trace::TraceReader reader(path);
    EXPECT_EQ(reader.header().version, 2u);
    std::vector<trace::Record> block;
    ASSERT_TRUE(reader.nextBlock(block));
    ASSERT_EQ(block.size(), 1u);
    EXPECT_EQ(block[0].cslot, trace::noCslot);
    EXPECT_EQ(block[0].pid, 42u); // everything else decodes as before
}

// ---------------------------------------------------------------------
// System-level determinism
// ---------------------------------------------------------------------

// The headline property: the trace file written by the full system —
// TLB hits/misses, page walks, fault services, kernel events — is
// byte-identical at every worker count.
TEST(TraceSystem, WorkersByteIdentical)
{
    const std::string p1 = tmpPath("mix-w1.trace");
    const std::string p2 = tmpPath("mix-w2.trace");
    const std::string p4 = tmpPath("mix-w4.trace");
    const std::string s1 = runTracedMix(1, p1);
    const std::string s2 = runTracedMix(2, p2);
    const std::string s4 = runTracedMix(4, p4);

    // Stats stay byte-identical with tracing attached...
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s4);

    // ...and the traces themselves are byte-identical and well-formed.
    const auto b1 = slurp(p1);
    ASSERT_GT(b1.size(), trace::headerBytes);
    EXPECT_EQ(b1, slurp(p2));
    EXPECT_EQ(b1, slurp(p4));
    const auto result = trace::validateTrace(p1);
    EXPECT_GT(result.records, 0u);
    EXPECT_GT(result.blocks, 1u); // one block per weave barrier

    // The mix exercised the whole pipeline: every headline event type
    // shows up.
    std::map<std::uint8_t, std::uint64_t> per_type;
    for (const auto &rec : readAll(p1))
        ++per_type[rec.type];
    for (const auto type :
         {trace::EventType::TlbL1Hit, trace::EventType::TlbL2Hit,
          trace::EventType::TlbMiss, trace::EventType::WalkStart,
          trace::EventType::WalkEnd, trace::EventType::FaultService}) {
        EXPECT_GT(per_type[static_cast<std::uint8_t>(type)], 0u)
            << "no " << trace::eventTypeName(type) << " events";
    }
}

// Tracing is pure observability: the stats tree of a traced run equals
// the stats tree of an untraced run, byte for byte.
TEST(TraceSystem, TracingDoesNotPerturbStats)
{
    const std::string traced = runTracedMix(2, tmpPath("perturb.trace"));
    const std::string plain = runTracedMix(2, "");
    EXPECT_EQ(traced, plain);
}

// ---------------------------------------------------------------------
// Distribution stat
// ---------------------------------------------------------------------

// Exact JSON shape of the distributions section: log2 buckets, integer
// sum, nearest-rank percentiles at bucket lower bounds.
TEST(DistributionStat, JsonExport)
{
    stats::StatGroup root("system");
    stats::Distribution lat;
    root.addStat("lat", &lat);
    for (std::uint64_t v : {1, 2, 3, 100})
        lat.sample(v);

    EXPECT_EQ(stats::toJsonString(root),
              "{\"scalars\":{},\"averages\":{},\"latencies\":{},"
              "\"distributions\":{\"lat\":{\"mean\":26.5,\"p50\":2,"
              "\"p95\":64,\"p99\":64,\"max\":100,\"sum\":106,"
              "\"count\":4,\"buckets\":[1,2,0,0,0,0,1]}},"
              "\"children\":{}}");

    lat.reset();
    EXPECT_EQ(lat.count(), 0u);
    EXPECT_EQ(lat.percentile(99), 0u);
}

// Distributions survive the stats-tree snapshot round trip with the
// identical exported JSON.
TEST(DistributionStat, SnapshotRoundTrip)
{
    const auto build = [](stats::StatGroup &root, stats::Scalar &s,
                          stats::Distribution &d) {
        root.addStat("events", &s);
        root.addStat("lat", &d);
    };

    stats::StatGroup root_a("system");
    stats::Scalar s_a;
    stats::Distribution d_a;
    build(root_a, s_a, d_a);
    s_a += 5;
    for (std::uint64_t v : {4, 7, 19, 300, 70000})
        d_a.sample(v);

    snap::ArchiveWriter w;
    root_a.saveStats(w);

    stats::StatGroup root_b("system");
    stats::Scalar s_b;
    stats::Distribution d_b;
    build(root_b, s_b, d_b);
    snap::ArchiveReader r(w.payload());
    root_b.restoreStats(r);
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(d_b.count(), 5u);
    EXPECT_EQ(d_b.sum(), d_a.sum());
    EXPECT_EQ(d_b.max(), 70000u);
    EXPECT_EQ(stats::toJsonString(root_a), stats::toJsonString(root_b));
}
