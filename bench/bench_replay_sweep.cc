/**
 * @file
 * Trace-driven design-space sweep (DESIGN.md §13): replay one recorded
 * translation trace against a grid of TLB / PWC / O-PC configurations
 * instead of re-running the full simulation per point.
 *
 * Protocol:
 *
 *  1. Obtain a trace. BF_REPLAY_TRACE=<file> replays an existing one;
 *     otherwise the bench self-records a fig11-style mongodb run (the
 *     full warm + measure protocol, traced) with the reference backend
 *     and times it — that full-simulation wall clock is the baseline
 *     for the speedup metric.
 *  2. Fidelity gate: replay at the recording configuration and diff
 *     every reconstructed counter against the recorded tallies. Any
 *     mismatch fails the bench (exit 1).
 *  3. Sweep: up to BF_REPLAY_GRID points (default 64) over
 *     L2 geometry x L1 geometry x PWC size x O-PC width x replacement
 *     policy, fanned across BF_JOBS workers, one replay engine per
 *     point. Each point replays under the BF_BACKEND design, so
 *     BF_BACKEND=victima or coalesced asks how a competitor (DESIGN.md
 *     §16) scales over the same reference trace.
 *
 * Output: the usual schema-v3 BENCH_replay_sweep.json with one run
 * entry per sweep point (the replayed stats tree) and headline metrics
 * points / sweep_seconds / speedup_vs_fullsim_x / validated_mismatches.
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

using namespace bfbench;

namespace
{

/** One sweep point: geometry overrides applied on top of the header. */
struct SweepPoint
{
    std::string label;
    unsigned l2_entries, l2_assoc;
    unsigned l1_entries, l1_assoc;
    unsigned pwc_entries;
    unsigned opc_width;
    tlb::TlbParams::Policy policy;
};

/** The 4 x 2 x 2 x 2 x 2 = 64-point grid, recording-like points first. */
std::vector<SweepPoint>
buildGrid(unsigned cap)
{
    static const std::pair<unsigned, unsigned> l2_geom[] = {
        { 1536, 12 }, { 768, 6 }, { 3072, 24 }, { 1536, 24 },
    };
    static const std::pair<unsigned, unsigned> l1_geom[] = {
        { 64, 4 }, { 128, 8 },
    };
    static const unsigned pwc_sizes[] = { 16, 32 };
    static const unsigned opc_widths[] = { 32, 8 };
    static const tlb::TlbParams::Policy policies[] = {
        tlb::TlbParams::Policy::Lru,
        tlb::TlbParams::Policy::Fifo,
    };

    std::vector<SweepPoint> grid;
    for (const auto &[l2e, l2a] : l2_geom)
        for (const auto &[l1e, l1a] : l1_geom)
            for (unsigned pwc : pwc_sizes)
                for (unsigned opc : opc_widths)
                    for (auto policy : policies) {
                        if (grid.size() >= cap)
                            return grid;
                        SweepPoint p{ "", l2e, l2a, l1e, l1a,
                                      pwc, opc, policy };
                        char buf[96];
                        std::snprintf(buf, sizeof buf,
                                      "l2-%ux%u.l1-%ux%u.pwc%u.opc%u.%s",
                                      l2e, l2a, l1e, l1a, pwc, opc,
                                      tlb::policyName(policy));
                        p.label = buf;
                        grid.push_back(std::move(p));
                    }
    return grid;
}

replay::ReplayParams
applyPoint(replay::ReplayParams params, const SweepPoint &p,
           translate::BackendKind backend)
{
    params.backend = backend;
    for (tlb::TlbParams *tp :
         { &params.l2_4k, &params.l2_2m, &params.l2_1g }) {
        tp->entries = p.l2_entries;
        tp->assoc = p.l2_assoc;
    }
    for (tlb::TlbParams *tp : { &params.l1d_4k, &params.l1i_4k }) {
        tp->entries = p.l1_entries;
        tp->assoc = p.l1_assoc;
    }
    params.pwc.entries_per_level = p.pwc_entries;
    params.opc_width = p.opc_width;
    for (tlb::TlbParams *tp :
         { &params.l1i_4k, &params.l1d_4k, &params.l1d_2m, &params.l1d_1g,
           &params.l2_4k, &params.l2_2m, &params.l2_1g })
        tp->policy = p.policy;
    return params;
}

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
    BenchReport report("replay_sweep");
    reportConfig(report, cfg);

    const unsigned grid_cap = knob("BF_REPLAY_GRID", 64u);

    // 1. Obtain a trace (and, when self-recording, the full-sim cost
    //    of one point for the speedup metric).
    std::string trace_path = knob<std::string>("BF_REPLAY_TRACE", "");
    double full_sim_seconds = 0;
    if (trace_path.empty()) {
        // Self-record: one traced full-sim run of the fig11 mongodb
        // point. Replay needs the cold-start fill history, so a warm-up
        // checkpoint restore must not skip the traced warm-up, and only
        // the reference backend's recording can be replayed.
        RunConfig record_cfg = cfg;
        record_cfg.backend = translate::BackendKind::BabelFish;
        record_cfg.restore_dir.clear();
        if (record_cfg.trace_dir.empty())
            record_cfg.trace_dir = "bf-replay-traces";
        const auto t0 = std::chrono::steady_clock::now();
        const RunResult run = runApp(workloads::AppProfile::mongodb(),
                                        core::SystemParams::babelfish(),
                                        record_cfg);
        full_sim_seconds = secondsSince(t0);
        trace_path = run.artifacts.trace_path;
        std::printf("recorded %s in %.2fs (full simulation)\n",
                    trace_path.c_str(), full_sim_seconds);
    }
    report.config("replay_trace", trace_path);
    report.config("replay_grid", grid_cap);

    try {
        // Decode and analyze the trace once; every sweep point replays
        // the same shared schedule (re-parsing and re-ordering the file
        // per point would dominate the sweep otherwise).
        trace::TraceReader file_reader(trace_path);
        const trace::TraceHeader header = file_reader.header();
        std::vector<std::vector<trace::Record>> blocks;
        {
            std::vector<trace::Record> block;
            while (file_reader.nextBlock(block))
                blocks.push_back(block);
        }
        const replay::ReplaySchedule schedule(header, std::move(blocks));

        // 2. Fidelity gate: replay at the recording configuration.
        const replay::ReplayParams recording =
            replay::paramsFromTrace(header.config);
        replay::ReplayEngine base(recording, header);
        base.run(schedule);
        const auto diffs = base.validate();
        report.metric("validated_mismatches",
                      static_cast<double>(diffs.size()));
        if (!diffs.empty()) {
            std::fprintf(stderr,
                         "replay at the recording config diverges on %zu "
                         "counter(s); first: %s recorded=%llu "
                         "replayed=%llu\n",
                         diffs.size(), diffs[0].name.c_str(),
                         static_cast<unsigned long long>(diffs[0].recorded),
                         static_cast<unsigned long long>(diffs[0].replayed));
            report.write();
            return 1;
        }
        const auto base_total = base.replayedTotal();
        std::printf("fidelity gate OK: %llu accesses replay exactly on "
                    "%u cores\n",
                    static_cast<unsigned long long>(base_total.accesses),
                    base.numCores());

        // 3. The sweep proper.
        const std::vector<SweepPoint> grid = buildGrid(grid_cap);
        std::vector<std::unique_ptr<replay::ReplayEngine>> engines(
            grid.size());
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            jobs.push_back([&, i] {
                auto engine = std::make_unique<replay::ReplayEngine>(
                    applyPoint(recording, grid[i], cfg.backend), header);
                engine->run(schedule);
                engines[i] = std::move(engine);
            });
        }
        runJobs(cfg, std::move(jobs));
        const double sweep_seconds = secondsSince(t0);

        std::printf("trace-driven design-space sweep of %s\n",
                    trace_path.c_str());
        rule();
        std::printf("%-34s %10s %10s %10s\n", "point", "l2-misses",
                    "pwc-miss", "lat/walk");
        rule();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const auto total = engines[i]->replayedTotal();
            const std::uint64_t l2_misses =
                total.l2_data_misses + total.l2_instr_misses;
            const double lat =
                total.miss_latency_count
                    ? static_cast<double>(total.miss_latency_sum) /
                          total.miss_latency_count
                    : 0;
            std::printf("%-34s %10llu %10llu %10.1f\n",
                        grid[i].label.c_str(),
                        static_cast<unsigned long long>(l2_misses),
                        static_cast<unsigned long long>(total.pwc_misses),
                        lat);
            RunArtifacts artifacts;
            artifacts.stats_json = engines[i]->statsJson();
            artifacts.trace_path = trace_path;
            report.addRun(grid[i].label, artifacts);
        }
        rule();

        report.metric("points", static_cast<double>(grid.size()));
        report.metric("sweep_seconds", sweep_seconds);
        std::printf("%zu points in %.2fs", grid.size(), sweep_seconds);
        if (full_sim_seconds > 0 && sweep_seconds > 0) {
            const double speedup =
                full_sim_seconds * static_cast<double>(grid.size()) /
                sweep_seconds;
            report.metric("speedup_vs_fullsim_x", speedup);
            report.note("fullsim_point_seconds", full_sim_seconds);
            std::printf(" — %.0fx faster than %zu full-sim points",
                        speedup, grid.size());
        }
        std::printf("\n");
        report.write();
        return 0;
    } catch (const trace::TraceError &err) {
        std::fprintf(stderr, "bench_replay_sweep: %s: %s\n",
                     trace_path.c_str(), err.what());
        return 1;
    } catch (const replay::ReplayError &err) {
        std::fprintf(stderr, "bench_replay_sweep: %s: %s\n",
                     trace_path.c_str(), err.what());
        return 1;
    }
}
