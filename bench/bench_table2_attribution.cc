/**
 * @file
 * Experiment E5 — paper Table II: fraction of the performance gain that
 * comes from L2 TLB effects (the rest comes from page-table effects:
 * eliminated faults and warm pte_t cache lines).
 *
 * Method: in addition to Baseline and full BabelFish, run a
 * page-table-sharing-only configuration (fused tables in the kernel but
 * a conventional PCID-tagged TLB). The TLB share of the gain is
 *   (gain_full − gain_pt_only) / gain_full.
 *
 * Paper reference points: MongoDB 0.77, ArangoDB 0.25, HTTPd 0.81
 * (avg 0.61); Compute avg 0.20; dense functions avg 0.20; sparse
 * functions avg 0.01 (their gains are almost all fault elimination).
 */

#include <algorithm>

#include "bench/common.hh"

using namespace bfbench;

int
main()
{
    const RunConfig cfg = RunConfig::fromEnv();
    BenchReport report("table2_attribution");
    reportConfig(report, cfg);

    const auto serving = workloads::AppProfile::dataServing();
    const auto compute = workloads::AppProfile::compute();

    // Three configurations per workload, all independent Systems.
    std::vector<AppRunResult> s_base(serving.size()), s_pt(serving.size()),
        s_full(serving.size());
    std::vector<AppRunResult> c_base(compute.size()), c_pt(compute.size()),
        c_full(compute.size());
    FaasRunResult f_base[2], f_pt[2], f_full[2];

    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < serving.size(); ++i) {
        jobs.push_back([&, i] {
            s_base[i] =
                runApp(serving[i], core::SystemParams::baseline(), cfg);
        });
        jobs.push_back([&, i] {
            s_pt[i] = runApp(
                serving[i], core::SystemParams::pageTableSharingOnly(),
                cfg);
        });
        jobs.push_back([&, i] {
            s_full[i] =
                runApp(serving[i], core::SystemParams::babelfish(), cfg);
        });
    }
    for (std::size_t i = 0; i < compute.size(); ++i) {
        jobs.push_back([&, i] {
            c_base[i] =
                runApp(compute[i], core::SystemParams::baseline(), cfg);
        });
        jobs.push_back([&, i] {
            c_pt[i] = runApp(
                compute[i], core::SystemParams::pageTableSharingOnly(),
                cfg);
        });
        jobs.push_back([&, i] {
            c_full[i] =
                runApp(compute[i], core::SystemParams::babelfish(), cfg);
        });
    }
    for (int s = 0; s < 2; ++s) {
        jobs.push_back([&, s] {
            f_base[s] =
                runFaas(core::SystemParams::baseline(), s == 1, cfg);
        });
        jobs.push_back([&, s] {
            f_pt[s] = runFaas(core::SystemParams::pageTableSharingOnly(),
                              s == 1, cfg);
        });
        jobs.push_back([&, s] {
            f_full[s] =
                runFaas(core::SystemParams::babelfish(), s == 1, cfg);
        });
    }
    runJobs(cfg, std::move(jobs));

    std::printf("Table II — Fraction of time reduction due to L2 TLB "
                "effects\n");
    rule();
    std::printf("%-12s %10s %10s %10s %8s\n", "workload", "gain-full",
                "gain-pt", "gain-tlb", "frac-tlb");
    rule();

    auto clamp01 = [](double x) { return std::min(1.0, std::max(0.0, x)); };
    auto row = [&](const std::string &name, double gain_full,
                   double gain_pt) {
        const double frac =
            gain_full > 0 ? clamp01((gain_full - gain_pt) / gain_full)
                          : 0.0;
        std::printf("%-12s %9.1f%% %9.1f%% %9.1f%% %8.2f\n", name.c_str(),
                    gain_full, gain_pt, gain_full - gain_pt, frac);
        report.metric(name + ".frac_tlb", frac);
    };

    // Data serving: metric = mean latency.
    for (std::size_t i = 0; i < serving.size(); ++i) {
        row(serving[i].name,
            reduction(s_base[i].mean_latency, s_full[i].mean_latency),
            reduction(s_base[i].mean_latency, s_pt[i].mean_latency));
        report.addRun(serving[i].name + ".baseline", s_base[i].artifacts);
        report.addRun(serving[i].name + ".pt_only", s_pt[i].artifacts);
        report.addRun(serving[i].name + ".babelfish", s_full[i].artifacts);
    }

    // Compute: metric = execution time (1/throughput).
    for (std::size_t i = 0; i < compute.size(); ++i) {
        row(compute[i].name,
            reduction(1.0 / c_base[i].units_per_ms,
                      1.0 / c_full[i].units_per_ms),
            reduction(1.0 / c_base[i].units_per_ms,
                      1.0 / c_pt[i].units_per_ms));
        report.addRun(compute[i].name + ".baseline", c_base[i].artifacts);
        report.addRun(compute[i].name + ".pt_only", c_pt[i].artifacts);
        report.addRun(compute[i].name + ".babelfish", c_full[i].artifacts);
    }

    // Functions: metric = trailing execution time.
    for (int s = 0; s < 2; ++s) {
        const std::string label = s ? "fn-sparse" : "fn-dense";
        row(label, reduction(f_base[s].trail_exec, f_full[s].trail_exec),
            reduction(f_base[s].trail_exec, f_pt[s].trail_exec));
        report.addRun(label + ".baseline", f_base[s].artifacts);
        report.addRun(label + ".pt_only", f_pt[s].artifacts);
        report.addRun(label + ".babelfish", f_full[s].artifacts);
    }

    rule();
    std::printf("(paper fractions: Mongo 0.77, Arango 0.25, HTTPd 0.81, "
                "Compute avg 0.20,\n dense fns avg 0.20, sparse fns avg "
                "0.01 — sparse gains are almost all page-table effects)\n");
    report.write();
    return 0;
}
