/**
 * @file
 * Experiment E4 — paper Fig. 11: latency / execution-time reduction
 * attained by BabelFish.
 *
 * Paper reference points: Data Serving mean −11% and 95th-percentile
 * tail −18% (Mongo/Arango > HTTPd); Compute execution time −11%
 * (GraphChi < FIO); Functions −10% dense, −55% sparse (trailing two of
 * each group of three; the leader is cold in both configurations).
 *
 * Every (workload, configuration) cell is an independent System, so
 * the sweep runs its cells concurrently (BF_JOBS workers); the stats
 * are identical to a serial run.
 */

#include "bench/common.hh"

using namespace bfbench;

int
main()
{
    const RunConfig cfg = RunConfig::fromEnv();
    BenchReport report("fig11_performance");
    reportConfig(report, cfg);

    const auto serving = workloads::AppProfile::dataServing();
    const auto compute = workloads::AppProfile::compute();

    // ---- Fan the independent cells out across worker threads.
    std::vector<AppRunResult> serving_base(serving.size());
    std::vector<AppRunResult> serving_fish(serving.size());
    std::vector<AppRunResult> compute_base(compute.size());
    std::vector<AppRunResult> compute_fish(compute.size());
    FaasRunResult faas_base[2], faas_fish[2];

    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < serving.size(); ++i) {
        jobs.push_back([&, i] {
            serving_base[i] =
                runApp(serving[i], core::SystemParams::baseline(), cfg);
        });
        jobs.push_back([&, i] {
            serving_fish[i] =
                runApp(serving[i], core::SystemParams::babelfish(), cfg);
        });
    }
    for (std::size_t i = 0; i < compute.size(); ++i) {
        jobs.push_back([&, i] {
            compute_base[i] =
                runApp(compute[i], core::SystemParams::baseline(), cfg);
        });
        jobs.push_back([&, i] {
            compute_fish[i] =
                runApp(compute[i], core::SystemParams::babelfish(), cfg);
        });
    }
    for (int s = 0; s < 2; ++s) {
        jobs.push_back([&, s] {
            faas_base[s] =
                runFaas(core::SystemParams::baseline(), s == 1, cfg);
        });
        jobs.push_back([&, s] {
            faas_fish[s] =
                runFaas(core::SystemParams::babelfish(), s == 1, cfg);
        });
    }
    runJobs(cfg, std::move(jobs));

    std::printf("Fig. 11 — Latency/time reduction attained by "
                "BabelFish\n");
    rule();

    // ---- Data Serving: mean and tail request latency.
    std::printf("%-12s %12s %12s %9s %9s\n", "data serving", "mean(b)",
                "mean(bf)", "mean-red", "tail-red");
    rule();
    double mean_sum = 0, tail_sum = 0;
    for (std::size_t i = 0; i < serving.size(); ++i) {
        const auto &base = serving_base[i];
        const auto &fish = serving_fish[i];
        const double mr = reduction(base.mean_latency, fish.mean_latency);
        const double tr = reduction(base.tail_latency, fish.tail_latency);
        std::printf("%-12s %12.0f %12.0f %8.1f%% %8.1f%%\n",
                    serving[i].name.c_str(), base.mean_latency,
                    fish.mean_latency, mr, tr);
        mean_sum += mr;
        tail_sum += tr;
        report.metric(serving[i].name + ".mean_reduction_pct", mr);
        report.metric(serving[i].name + ".tail_reduction_pct", tr);
        report.addRun(serving[i].name + ".baseline", base.artifacts);
        report.addRun(serving[i].name + ".babelfish", fish.artifacts);
    }
    std::printf("%-12s (cycles/request)        mean %5.1f%%  tail %5.1f%%"
                "   (paper: 11%% / 18%%)\n",
                "average", mean_sum / serving.size(),
                tail_sum / serving.size());
    report.metric("serving.mean_reduction_pct", mean_sum / serving.size());
    report.metric("serving.tail_reduction_pct", tail_sum / serving.size());
    rule();

    // ---- Compute: execution time via work-unit throughput.
    std::printf("%-12s %12s %12s %9s\n", "compute", "units/ms(b)",
                "units/ms(bf)", "time-red");
    rule();
    double comp_sum = 0;
    for (std::size_t i = 0; i < compute.size(); ++i) {
        const auto &base = compute_base[i];
        const auto &fish = compute_fish[i];
        // Execution time per unit of work is the inverse of throughput.
        const double tr = reduction(1.0 / base.units_per_ms,
                                    1.0 / fish.units_per_ms);
        std::printf("%-12s %12.1f %12.1f %8.1f%%\n",
                    compute[i].name.c_str(), base.units_per_ms,
                    fish.units_per_ms, tr);
        comp_sum += tr;
        report.metric(compute[i].name + ".time_reduction_pct", tr);
        report.addRun(compute[i].name + ".baseline", base.artifacts);
        report.addRun(compute[i].name + ".babelfish", fish.artifacts);
    }
    std::printf("%-12s execution time reduction %5.1f%%   "
                "(paper: 11%%)\n",
                "average", comp_sum / compute.size());
    report.metric("compute.time_reduction_pct", comp_sum / compute.size());
    rule();

    // ---- Functions: execution time of the trailing two functions.
    std::printf("%-12s %12s %12s %9s\n", "functions", "exec(b) Mcyc",
                "exec(bf) Mcyc", "time-red");
    rule();
    for (int s = 0; s < 2; ++s) {
        const auto &base = faas_base[s];
        const auto &fish = faas_fish[s];
        const char *label = s ? "fn-sparse" : "fn-dense";
        const double tr = reduction(base.trail_exec, fish.trail_exec);
        std::printf("%-12s %12.2f %12.2f %8.1f%%\n",
                    s ? "sparse" : "dense", base.trail_exec / 1e6,
                    fish.trail_exec / 1e6, tr);
        report.metric(std::string(label) + ".time_reduction_pct", tr);
        report.addRun(std::string(label) + ".baseline", base.artifacts);
        report.addRun(std::string(label) + ".babelfish", fish.artifacts);
    }
    std::printf("(paper: dense −10%%, sparse −55%%)\n");
    report.write();
    return 0;
}
