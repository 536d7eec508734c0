/**
 * @file
 * Head-to-head ablation grid over the translation-backend zoo
 * (DESIGN.md §16): every backend — the BabelFish reference, the
 * Victima-style L2-data-array spill design and the coalesced
 * range-TLB design — runs the same workloads under the same harness,
 * so the paper's gains can be read against real competitor designs
 * instead of only against the non-sharing baseline.
 *
 * Two tiers, mirroring the repo's replay-first methodology:
 *
 *  1. Full simulation: backend x workload grid (3 x 3 by default:
 *     mongodb, arangodb, graphchi). The BabelFish row runs the paper
 *     configuration (SystemParams::babelfish()); the competitors run
 *     on the non-sharing baseline their designs assume. One run entry
 *     per cell, labeled "fullsim.<backend>.<workload>".
 *  2. Trace-driven replay: a self-recorded reference mongodb trace is
 *     replayed under backend x L2-geometry points (3 x 3 by default,
 *     BF_ZOO_GRID caps the points),
 *     labeled "replay.<backend>.l2-<entries>" — the cheap outer sweep
 *     that answers how each design scales with TLB reach. The replay
 *     competitor models are functional approximations (see
 *     replay/replay.hh); the reference point at the recording geometry
 *     is validated exactly and fails the bench on any divergence.
 *
 * Output: schema-v3 BENCH_zoo.json with one run per grid cell and
 * headline metrics grid_backends / grid_workloads / replay_points.
 */

#include "bench/common.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/trace/trace.hh"
#include "replay/replay.hh"
#include "translate/kind.hh"

using namespace bfbench;

namespace
{

constexpr translate::BackendKind kBackends[] = {
    translate::BackendKind::BabelFish,
    translate::BackendKind::Victima,
    translate::BackendKind::Coalesced,
};

/** The system each backend is benchmarked on: the reference design
 *  runs the paper configuration, the competitors the non-sharing
 *  baseline their papers assume (no CCID tagging, no O-PC). */
core::SystemParams
systemFor(translate::BackendKind backend)
{
    core::SystemParams params =
        backend == translate::BackendKind::BabelFish
            ? core::SystemParams::babelfish()
            : core::SystemParams::baseline();
    params.mmu.backend = backend;
    return params;
}

/** One full-simulation grid cell. */
struct FullSimCell
{
    translate::BackendKind backend;
    workloads::AppProfile profile;
    std::string label;
    RunResult result;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main()
{
    RunConfig cfg = RunConfig::fromEnv();
    BenchReport report("zoo");
    reportConfig(report, cfg);

    const unsigned replay_cap = knob("BF_ZOO_GRID", 9u);
    report.config("zoo_grid", replay_cap);

    // ---- Tier 1: full-simulation backend x workload grid.
    const workloads::AppProfile profiles[] = {
        workloads::AppProfile::mongodb(),
        workloads::AppProfile::arangodb(),
        workloads::AppProfile::graphchi(),
    };

    std::vector<FullSimCell> cells;
    for (translate::BackendKind backend : kBackends)
        for (const workloads::AppProfile &profile : profiles) {
            FullSimCell cell;
            cell.backend = backend;
            cell.profile = profile;
            cell.label = std::string("fullsim.") +
                         translate::backendName(backend) + "." +
                         profile.name;
            cells.push_back(std::move(cell));
        }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        jobs.push_back([&, i] {
            FullSimCell &cell = cells[i];
            // Per-cell backend override: the grid spans backends, so
            // the global BF_BACKEND knob is ignored here.
            RunConfig cell_cfg = cfg;
            cell_cfg.backend = cell.backend;
            cell_cfg.trace_dir.clear(); // traces only for the replay tier
            cell.result = runApp(cell.profile, systemFor(cell.backend),
                                 cell_cfg);
        });
    }
    runJobs(cfg, std::move(jobs));
    const double fullsim_seconds = secondsSince(t0);

    std::printf("translation-backend zoo — full-simulation grid\n");
    rule();
    std::printf("%-28s %10s %10s %10s %10s\n", "cell", "lat/req",
                "units/ms", "d-mpki", "i-mpki");
    rule();
    for (FullSimCell &cell : cells) {
        std::printf("%-28s %10.0f %10.1f %10.2f %10.2f\n",
                    cell.label.c_str(), cell.result.mean_latency,
                    cell.result.units_per_ms, cell.result.data_mpki,
                    cell.result.instr_mpki);
        report.addRun(cell.label, cell.result.artifacts);
    }
    rule();
    report.metric("grid_backends",
                  static_cast<double>(std::size(kBackends)));
    report.metric("grid_workloads",
                  static_cast<double>(std::size(profiles)));
    report.metric("fullsim_seconds", fullsim_seconds);

    // ---- Tier 2: replay sweep of backend x L2 geometry over one
    //      reference trace.
    //
    // Self-record a reference-backend mongodb run (replay needs the
    // cold-start fill history, so no warm-up restore), then fan the
    // swept points across BF_JOBS.
    RunConfig record_cfg = cfg;
    record_cfg.backend = translate::BackendKind::BabelFish;
    record_cfg.restore_dir.clear();
    if (record_cfg.trace_dir.empty())
        record_cfg.trace_dir = "bf-replay-traces";
    const RunResult recording_run =
        runApp(workloads::AppProfile::mongodb(),
               systemFor(translate::BackendKind::BabelFish), record_cfg);
    const std::string trace_path = recording_run.artifacts.trace_path;
    report.config("replay_trace", trace_path);

    try {
        trace::TraceReader file_reader(trace_path);
        const trace::TraceHeader header = file_reader.header();
        std::vector<std::vector<trace::Record>> blocks;
        {
            std::vector<trace::Record> block;
            while (file_reader.nextBlock(block))
                blocks.push_back(block);
        }
        const replay::ReplaySchedule schedule(header, std::move(blocks));

        // Fidelity gate: the reference backend at the recording
        // geometry must replay every counter exactly.
        const replay::ReplayParams recording =
            replay::paramsFromTrace(header.config);
        replay::ReplayEngine base(recording, header);
        base.run(schedule);
        const auto diffs = base.validate();
        report.metric("validated_mismatches",
                      static_cast<double>(diffs.size()));
        if (!diffs.empty()) {
            std::fprintf(stderr,
                         "zoo replay diverges at the recording config on "
                         "%zu counter(s); first: %s recorded=%llu "
                         "replayed=%llu\n",
                         diffs.size(), diffs[0].name.c_str(),
                         static_cast<unsigned long long>(diffs[0].recorded),
                         static_cast<unsigned long long>(diffs[0].replayed));
            report.write();
            return 1;
        }

        struct ReplayPoint
        {
            translate::BackendKind backend;
            unsigned l2_entries, l2_assoc;
            std::string label;
        };
        static const std::pair<unsigned, unsigned> l2_geom[] = {
            { 768, 6 }, { 1536, 12 }, { 3072, 24 },
        };
        std::vector<ReplayPoint> points;
        for (translate::BackendKind backend : kBackends)
            for (const auto &[l2e, l2a] : l2_geom) {
                if (points.size() >= replay_cap)
                    break;
                ReplayPoint p{ backend, l2e, l2a, "" };
                p.label = std::string("replay.") +
                          translate::backendName(backend) + ".l2-" +
                          std::to_string(l2e);
                points.push_back(std::move(p));
            }

        std::vector<std::unique_ptr<replay::ReplayEngine>> engines(
            points.size());
        const auto t1 = std::chrono::steady_clock::now();
        std::vector<std::function<void()>> replay_jobs;
        for (std::size_t i = 0; i < points.size(); ++i) {
            replay_jobs.push_back([&, i] {
                replay::ReplayParams params = recording;
                params.backend = points[i].backend;
                for (tlb::TlbParams *tp :
                     { &params.l2_4k, &params.l2_2m, &params.l2_1g }) {
                    tp->entries = points[i].l2_entries;
                    tp->assoc = points[i].l2_assoc;
                }
                auto engine = std::make_unique<replay::ReplayEngine>(
                    params, header);
                engine->run(schedule);
                engines[i] = std::move(engine);
            });
        }
        runJobs(cfg, std::move(replay_jobs));
        const double replay_seconds = secondsSince(t1);

        std::printf("replay sweep of %s\n", trace_path.c_str());
        rule();
        std::printf("%-28s %10s %10s %10s\n", "point", "l2-misses",
                    "walks", "lat/walk");
        rule();
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto total = engines[i]->replayedTotal();
            const std::uint64_t l2_misses =
                total.l2_data_misses + total.l2_instr_misses;
            const double lat =
                total.miss_latency_count
                    ? static_cast<double>(total.miss_latency_sum) /
                          total.miss_latency_count
                    : 0;
            std::printf("%-28s %10llu %10llu %10.1f\n",
                        points[i].label.c_str(),
                        static_cast<unsigned long long>(l2_misses),
                        static_cast<unsigned long long>(total.walks), lat);
            RunArtifacts artifacts;
            artifacts.stats_json = engines[i]->statsJson();
            artifacts.trace_path = trace_path;
            report.addRun(points[i].label, artifacts);
        }
        rule();
        report.metric("replay_points",
                      static_cast<double>(points.size()));
        report.metric("replay_seconds", replay_seconds);
        std::printf("%zu full-sim cells in %.2fs, %zu replay points in "
                    "%.2fs\n",
                    cells.size(), fullsim_seconds, points.size(),
                    replay_seconds);
        report.write();
        return 0;
    } catch (const trace::TraceError &err) {
        std::fprintf(stderr, "bench_zoo: %s: %s\n", trace_path.c_str(),
                     err.what());
        return 1;
    } catch (const replay::ReplayError &err) {
        std::fprintf(stderr, "bench_zoo: %s: %s\n", trace_path.c_str(),
                     err.what());
        return 1;
    }
}
