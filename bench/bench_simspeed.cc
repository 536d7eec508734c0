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
 * Its own knobs (rows of the bench/common.hh table): BF_REPEAT keeps
 * the fastest of n timings per workload (use 3+ for recorded numbers).
 * BF_BASELINE names a prior BENCH_simspeed.json: its metrics.sim_mips
 * is the baseline for the speedup note and its host rows the
 * per-workload baselines; an unreadable file, or one without sim_mips,
 * exits 2 before anything runs. BF_MIPS_GUARD=f requires a baseline
 * (exit 2 without one) and exits 1 when the aggregate falls below
 * f x baseline, and BF_MIPS_GUARD_ROW
 * (default 0.80, 0 = off) holds each row to its own baseline, so one
 * workload cannot regress behind other rows' gains. Without a baseline
 * the speedup note is omitted — there is no hard-coded reference value,
 * so numbers from different machines never get compared silently.
 *
 * The mix always runs serially (BF_JOBS is ignored): wall-clock timing
 * of concurrent cells would measure scheduler contention, not the
 * simulator. BF_WORKERS *is* honored — it parallelizes inside each
 * System and is exactly what this bench exists to measure.
 */

#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"

using namespace bfbench;

namespace
{

/**
 * Baselines parsed from a prior BENCH_simspeed.json (BF_BASELINE):
 * the aggregate metrics "sim_mips" plus the per-workload sim-MIPS of
 * every host row, for the per-row guard floors.
 */
struct Baseline
{
    double aggregate_mips = 0;
    std::vector<std::pair<std::string, double>> row_mips;

    /** Baseline sim-MIPS of a host row, or 0 when absent. */
    double
    rowMips(const std::string &label) const
    {
        for (const auto &[row, mips] : row_mips) {
            if (row == label)
                return mips;
        }
        return 0;
    }
};

/**
 * Parse BF_BASELINE. The aggregate is the first "sim_mips" in the file
 * (the metrics section precedes the host rows in the schema); a host
 * row's value follows its '"<label>":{"host_seconds":' opener. A file
 * that cannot be read, or whose aggregate or any host row's sim_mips is
 * not a positive number, exits 2 naming it: a baseline that silently
 * reads as zero would disarm the guards.
 */
Baseline
baselineFromFile(const std::string &path,
                 const std::vector<std::string> &labels)
{
    const auto fail = [&](const std::string &why) {
        std::fprintf(stderr, "BF_BASELINE=%s: %s\n", path.c_str(),
                     why.c_str());
        std::exit(2);
    };
    Baseline base;
    std::ifstream in(path);
    if (!in)
        fail("cannot read the file");
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const std::string key = "\"sim_mips\":";
    const auto pos = text.find(key);
    if (pos == std::string::npos)
        fail("no sim_mips in the file");
    // The report writes numbers right after the key, with no space; a
    // value that does not parse stays 0 and is rejected with the rest.
    const auto positive = [&](std::size_t at, const std::string &what) {
        double value = 0;
        std::from_chars(text.data() + at + key.size(),
                        text.data() + text.size(), value);
        if (!(value > 0))
            fail(what + " is not a positive number");
        return value;
    };
    base.aggregate_mips = positive(pos, "sim_mips");
    for (const auto &label : labels) {
        const std::string row_key = "\"" + label + "\":{\"host_seconds\":";
        const auto row = text.find(row_key);
        if (row == std::string::npos)
            continue;
        const auto mips = text.find(key, row + row_key.size());
        if (mips == std::string::npos)
            continue;
        base.row_mips.emplace_back(
            label, positive(mips, "row " + label + " sim_mips"));
    }
    return base;
}

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

/** Run one co-located app cell (as Fig. 11 does) and time the run. */
SpeedSample
timeApp(const workloads::AppProfile &profile, core::SystemParams params,
        const RunConfig &cfg)
{
    params.num_cores = cfg.num_cores;
    cfg.applyExecKnobs(params);
    core::System sys(params);

    const unsigned n = cfg.num_cores * cfg.containers_per_core;
    auto app = workloads::buildApp(sys.kernel(), profile, n, cfg.seed);
    auto threads = workloads::makeAppThreads(app, cfg.seed);
    for (unsigned i = 0; i < n; ++i)
        sys.addThread(i % cfg.num_cores, threads[i].get());

    const auto t0 = std::chrono::steady_clock::now();
    sys.run(msToCycles(cfg.warm_ms + cfg.measure_ms));
    const auto t1 = std::chrono::steady_clock::now();

    SpeedSample s;
    s.host_seconds = std::chrono::duration<double>(t1 - t0).count();
    s.instructions = sys.totalInstructions();
    s.phases = sys.phaseTimes();
    return s;
}

/** Run one FaaS group to completion (as Fig. 11 does) and time it. */
SpeedSample
timeFaas(core::SystemParams params, bool sparse, const RunConfig &cfg)
{
    params.num_cores = 1;
    cfg.applyExecKnobs(params);
    params.core.quantum = msToCycles(0.5);
    core::System sys(params);

    auto group = workloads::buildFaasGroup(
        sys.kernel(), workloads::FunctionProfile::all(), cfg.seed);
    std::vector<std::unique_ptr<workloads::FunctionThread>> threads;
    for (unsigned i = 0; i < 3; ++i) {
        threads.push_back(std::make_unique<workloads::FunctionThread>(
            group.profiles[i], group.containers[i], sparse,
            cfg.seed + 17 * i));
    }

    const auto t0 = std::chrono::steady_clock::now();
    sys.addThread(0, threads[0].get());
    sys.run(msToCycles(3));
    sys.addThread(0, threads[1].get());
    sys.addThread(0, threads[2].get());
    sys.runUntilFinished(msToCycles(4000));
    const auto t1 = std::chrono::steady_clock::now();

    SpeedSample s;
    s.host_seconds = std::chrono::duration<double>(t1 - t0).count();
    s.instructions = sys.totalInstructions();
    s.phases = sys.phaseTimes();
    return s;
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
        cells.push_back({ profile.name, [profile, &cfg] {
            return timeApp(profile, core::SystemParams::babelfish(), cfg);
        } });
    }
    for (const auto &profile : workloads::AppProfile::compute()) {
        cells.push_back({ profile.name, [profile, &cfg] {
            return timeApp(profile, core::SystemParams::babelfish(), cfg);
        } });
    }
    cells.push_back({ "fn-dense", [&cfg] {
        return timeFaas(core::SystemParams::babelfish(), false, cfg);
    } });
    cells.push_back({ "fn-sparse", [&cfg] {
        return timeFaas(core::SystemParams::babelfish(), true, cfg);
    } });

    std::vector<std::string> labels;
    for (const auto &cell : cells)
        labels.push_back(cell.label);

    Baseline base;
    if (const auto path = knob<std::string>("BF_BASELINE", ""); !path.empty())
        base = baselineFromFile(path, labels);
    const double guard = knob("BF_MIPS_GUARD", 0.0);
    if (guard > 0 && base.aggregate_mips == 0) {
        std::fprintf(stderr, "BF_MIPS_GUARD=%g: needs a baseline "
                             "(set BF_BASELINE)\n", guard);
        return 2;
    }

    std::printf("Simulation speed — host throughput of the Fig. 11 mix "
                "(%u cores, best of %u)\n", cfg.num_cores, repeats);
    rule();
    std::printf("%-12s %12s %10s %10s %8s %8s %8s %8s\n", "workload",
                "sim Minstr", "host sec", "sim MIPS", "bound", "fault",
                "merge", "weave");
    rule();

    SpeedSample total;
    std::vector<std::pair<std::string, SpeedSample>> rows;
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
        rows.emplace_back(cell.label, s);
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

    if (base.aggregate_mips > 0) {
        const double speedup = total.mips() / base.aggregate_mips;
        std::printf("baseline %.2f MIPS -> speedup %.2fx\n",
                    base.aggregate_mips, speedup);
        report.note("baseline_mips", base.aggregate_mips);
        report.note("speedup", speedup);
    }
    report.write();

    // Regression gates (CI): with a baseline and BF_MIPS_GUARD set, an
    // aggregate drop below guard x baseline is a hard failure, and each
    // workload row is additionally held to BF_MIPS_GUARD_ROW x its own
    // baseline row (default 0.80) — a single workload regressing badly
    // cannot hide behind other rows' gains. The report above is written
    // either way so the artifact shows the failing numbers.
    if (guard > 0) {
        bool failed = false;
        if (total.mips() < guard * base.aggregate_mips) {
            std::fprintf(stderr,
                         "FAIL: aggregate %.2f MIPS is below %.0f%% of "
                         "the %.2f MIPS baseline\n",
                         total.mips(), guard * 100, base.aggregate_mips);
            failed = true;
        }
        const double row_guard = knob("BF_MIPS_GUARD_ROW", 0.80);
        if (row_guard > 0) {
            for (const auto &[label, s] : rows) {
                const double row_base = base.rowMips(label);
                if (row_base <= 0)
                    continue;
                if (s.mips() < row_guard * row_base) {
                    std::fprintf(stderr,
                                 "FAIL: %s %.2f MIPS is below %.0f%% of "
                                 "its %.2f MIPS baseline row\n",
                                 label.c_str(), s.mips(), row_guard * 100,
                                 row_base);
                    failed = true;
                }
            }
        }
        if (failed)
            return 1;
    }
    return 0;
}
