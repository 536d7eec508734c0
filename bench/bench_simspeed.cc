/**
 * @file
 * Simulation-speed harness: how fast does the *simulator* run on the
 * host? Reports host wall-clock seconds and simulated MIPS (simulated
 * instructions per host-second) for the default 8-core Fig. 11 workload
 * mix (Data Serving + Compute apps under BabelFish, plus one FaaS
 * group), and an aggregate over the whole mix.
 *
 * The numbers here describe the simulator's own throughput — the inner
 * translate/TLB/cache loop — never the modeled machine, so they are the
 * one output allowed to change across purely host-side optimizations.
 * The golden-stats check (tools/check_golden_stats.py) enforces the
 * complement: the architectural stats must not move at all.
 *
 * Each row also reports the per-phase host-time breakdown of the chunk
 * loop (System::phaseTimes): bound dispatch, fault service, canonical
 * merge, weave replay. That is the Amdahl decomposition for
 * BF_WORKERS — it scales the bound share, the fault resumes and the
 * probe drains inside the weave — and lands in the JSON host rows as
 * the additive "phases" object (schema v3).
 *
 * BF_REPEAT (a row of the bench/common.hh table) keeps the fastest of
 * n timings per workload (use 3+ for recorded numbers). The bench only
 * measures: tools/bench_diff.py judges a report against a baseline
 * (the CI speed gate, DESIGN.md §14).
 *
 * Each cell is built by the same bench/common.hh code that runApp and
 * runFaas use (buildAppWorld, buildFaasWorld + launchFaas); the timer
 * covers an app's whole warm-up + measurement run in one call and a
 * FaaS group's launch to completion. BF_SAMPLE_MS=0 keeps the sampler
 * out of the timed region, as recorded numbers and CI do.
 *
 * The mix always runs serially (BF_JOBS is ignored): wall-clock timing
 * of concurrent cells would measure scheduler contention, not the
 * simulator. BF_WORKERS *is* honored — it parallelizes inside each
 * System and is exactly what this bench exists to measure.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"

using namespace bfbench;

namespace
{

/** One timed simulation: host seconds, instructions, phase breakdown. */
struct SpeedSample
{
    double host_seconds = 0;
    std::uint64_t instructions = 0;
    core::System::PhaseTimes phases{};

    double
    mips() const
    {
        return host_seconds > 0
                   ? static_cast<double>(instructions) / host_seconds / 1e6
                   : 0;
    }

    void
    addPhases(const SpeedSample &other)
    {
        phases.bound_seconds += other.phases.bound_seconds;
        phases.fault_seconds += other.phases.fault_seconds;
        phases.fault_service_seconds += other.phases.fault_service_seconds;
        phases.merge_seconds += other.phases.merge_seconds;
        phases.weave_seconds += other.phases.weave_seconds;
    }
};

/** Host seconds of @p run, with the System's totals after it. */
template <typename Run>
SpeedSample
timed(const core::System &sys, Run &&run)
{
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();

    SpeedSample s;
    s.host_seconds = std::chrono::duration<double>(t1 - t0).count();
    s.instructions = sys.totalInstructions();
    s.phases = sys.phaseTimes();
    return s;
}

/** Run one co-located app cell (as Fig. 11 does) and time the run. */
SpeedSample
timeApp(const workloads::AppProfile &profile, const RunConfig &cfg)
{
    AppWorld w =
        buildAppWorld(profile, core::SystemParams::babelfish(), cfg);
    return timed(*w.sys, [&] {
        w.sys->run(msToCycles(cfg.warm_ms + cfg.measure_ms));
    });
}

/** Run one FaaS group to completion (as Fig. 11 does) and time it. */
SpeedSample
timeFaas(bool sparse, const RunConfig &cfg)
{
    FaasWorld w =
        buildFaasWorld(core::SystemParams::babelfish(), sparse, cfg);
    return timed(*w.sys, [&] { launchFaas(w); });
}

/** Best (fastest) of @p repeats runs of a workload. */
SpeedSample
best(unsigned repeats, const std::function<SpeedSample()> &run)
{
    SpeedSample best_sample = run();
    for (unsigned i = 1; i < repeats; ++i) {
        const SpeedSample s = run();
        if (s.host_seconds < best_sample.host_seconds)
            best_sample = s;
    }
    return best_sample;
}

} // namespace

int
main()
{
    const RunConfig cfg = RunConfig::fromEnv();
    const unsigned repeats = knob("BF_REPEAT", 1u);

    BenchReport report("simspeed");
    reportConfig(report, cfg);
    report.config("repeats", static_cast<double>(repeats));

    // The Fig. 11 workload mix under the BabelFish configuration.
    struct Cell
    {
        std::string label;
        std::function<SpeedSample()> run;
    };
    std::vector<Cell> cells;
    for (const auto &profile : workloads::AppProfile::dataServing()) {
        cells.push_back(
            { profile.name, [profile, &cfg] { return timeApp(profile, cfg); } });
    }
    for (const auto &profile : workloads::AppProfile::compute()) {
        cells.push_back(
            { profile.name, [profile, &cfg] { return timeApp(profile, cfg); } });
    }
    cells.push_back({ "fn-dense", [&cfg] { return timeFaas(false, cfg); } });
    cells.push_back({ "fn-sparse", [&cfg] { return timeFaas(true, cfg); } });

    std::printf("Simulation speed — host throughput of the Fig. 11 mix "
                "(%u cores, best of %u)\n", cfg.num_cores, repeats);
    rule();
    std::printf("%-12s %12s %10s %10s %8s %8s %8s %8s\n", "workload",
                "sim Minstr", "host sec", "sim MIPS", "bound", "fault",
                "merge", "weave");
    rule();

    SpeedSample total;
    for (const auto &cell : cells) {
        const SpeedSample s = best(repeats, cell.run);
        const auto &ph = s.phases;
        std::printf("%-12s %12.2f %10.3f %10.2f %8.3f %8.3f %8.3f "
                    "%8.3f\n",
                    cell.label.c_str(), s.instructions / 1e6,
                    s.host_seconds, s.mips(), ph.bound_seconds,
                    ph.fault_seconds, ph.merge_seconds,
                    ph.weave_seconds);
        report.hostPhases(cell.label, s.host_seconds, s.mips(), ph);
        total.host_seconds += s.host_seconds;
        total.instructions += s.instructions;
        total.addPhases(s);
    }
    rule();
    const auto &tp = total.phases;
    std::printf("%-12s %12.2f %10.3f %10.2f %8.3f %8.3f %8.3f %8.3f\n",
                "total", total.instructions / 1e6, total.host_seconds,
                total.mips(), tp.bound_seconds, tp.fault_seconds,
                tp.merge_seconds, tp.weave_seconds);
    report.hostPhases("total", total.host_seconds, total.mips(), tp);
    report.metric("sim_mips", total.mips());
    report.metric("host_seconds", total.host_seconds);

    report.write();
    return 0;
}
