/**
 * @file
 * Experiment E7 — paper §VII-C, "BabelFish vs Larger TLB": spend the
 * CCID + O-PC storage on a bigger conventional L2 TLB instead, and
 * compare.
 *
 * Paper reference points: the equal-area larger conventional TLB gains
 * only 2.1% mean latency (data serving), 0.6% (compute), 1.1% / 0.3%
 * (dense / sparse functions) — no match for BabelFish, which also
 * benefits from page-table effects and cross-process prefetching.
 */

#include "bench/common.hh"

#include "analysis/cacti_lite.hh"

using namespace bfbench;

namespace
{

core::SystemParams
largerTlbParams()
{
    core::SystemParams params = core::SystemParams::baseline();
    analysis::CactiLite cacti;
    const auto entries = cacti.equalAreaConventionalEntries();
    params.mmu.l2_4k.entries = static_cast<unsigned>(entries);
    params.mmu.l2_2m.entries = static_cast<unsigned>(entries);
    return params;
}

} // namespace

int
main()
{
    const RunConfig cfg = RunConfig::fromEnv();
    const core::SystemParams larger = largerTlbParams();
    BenchReport report("larger_tlb");
    reportConfig(report, cfg);
    report.config("larger_tlb_entries", larger.mmu.l2_4k.entries);

    const auto serving = workloads::AppProfile::dataServing();
    const auto compute = workloads::AppProfile::compute();

    std::vector<AppRunResult> s_base(serving.size()), s_big(serving.size()),
        s_fish(serving.size());
    std::vector<AppRunResult> c_base(compute.size()), c_big(compute.size()),
        c_fish(compute.size());
    FaasRunResult f_base[2], f_big[2], f_fish[2];

    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < serving.size(); ++i) {
        jobs.push_back([&, i] {
            s_base[i] =
                runApp(serving[i], core::SystemParams::baseline(), cfg);
        });
        jobs.push_back([&, i] { s_big[i] = runApp(serving[i], larger, cfg); });
        jobs.push_back([&, i] {
            s_fish[i] =
                runApp(serving[i], core::SystemParams::babelfish(), cfg);
        });
    }
    for (std::size_t i = 0; i < compute.size(); ++i) {
        jobs.push_back([&, i] {
            c_base[i] =
                runApp(compute[i], core::SystemParams::baseline(), cfg);
        });
        jobs.push_back([&, i] { c_big[i] = runApp(compute[i], larger, cfg); });
        jobs.push_back([&, i] {
            c_fish[i] =
                runApp(compute[i], core::SystemParams::babelfish(), cfg);
        });
    }
    for (int s = 0; s < 2; ++s) {
        jobs.push_back([&, s] {
            f_base[s] =
                runFaas(core::SystemParams::baseline(), s == 1, cfg);
        });
        jobs.push_back([&, s] { f_big[s] = runFaas(larger, s == 1, cfg); });
        jobs.push_back([&, s] {
            f_fish[s] =
                runFaas(core::SystemParams::babelfish(), s == 1, cfg);
        });
    }
    runJobs(cfg, std::move(jobs));

    std::printf("§VII-C — BabelFish vs an equal-area larger conventional "
                "L2 TLB (%u entries)\n", larger.mmu.l2_4k.entries);
    rule();
    std::printf("%-12s %12s %12s\n", "workload", "larger-TLB",
                "BabelFish");
    rule();

    double ds_l = 0, ds_b = 0;
    for (std::size_t i = 0; i < serving.size(); ++i) {
        const double rl =
            reduction(s_base[i].mean_latency, s_big[i].mean_latency);
        const double rb =
            reduction(s_base[i].mean_latency, s_fish[i].mean_latency);
        std::printf("%-12s %11.1f%% %11.1f%%   (mean latency)\n",
                    serving[i].name.c_str(), rl, rb);
        ds_l += rl;
        ds_b += rb;
        report.metric(serving[i].name + ".larger_tlb_reduction_pct", rl);
        report.metric(serving[i].name + ".babelfish_reduction_pct", rb);
        report.addRun(serving[i].name + ".baseline", s_base[i].artifacts);
        report.addRun(serving[i].name + ".larger_tlb", s_big[i].artifacts);
        report.addRun(serving[i].name + ".babelfish", s_fish[i].artifacts);
    }
    std::printf("%-12s %11.1f%% %11.1f%%   (paper: 2.1%% vs 11%%)\n",
                "serving avg", ds_l / serving.size(),
                ds_b / serving.size());
    rule();

    double c_l = 0, c_b = 0;
    for (std::size_t i = 0; i < compute.size(); ++i) {
        const double rl = reduction(1.0 / c_base[i].units_per_ms,
                                    1.0 / c_big[i].units_per_ms);
        const double rb = reduction(1.0 / c_base[i].units_per_ms,
                                    1.0 / c_fish[i].units_per_ms);
        std::printf("%-12s %11.1f%% %11.1f%%   (execution time)\n",
                    compute[i].name.c_str(), rl, rb);
        c_l += rl;
        c_b += rb;
        report.metric(compute[i].name + ".larger_tlb_reduction_pct", rl);
        report.metric(compute[i].name + ".babelfish_reduction_pct", rb);
        report.addRun(compute[i].name + ".baseline", c_base[i].artifacts);
        report.addRun(compute[i].name + ".larger_tlb", c_big[i].artifacts);
        report.addRun(compute[i].name + ".babelfish", c_fish[i].artifacts);
    }
    std::printf("%-12s %11.1f%% %11.1f%%   (paper: 0.6%% vs 11%%)\n",
                "compute avg", c_l / compute.size(), c_b / compute.size());
    rule();

    for (int s = 0; s < 2; ++s) {
        const std::string label = s ? "fn-sparse" : "fn-dense";
        const double rl =
            reduction(f_base[s].trail_exec, f_big[s].trail_exec);
        const double rb =
            reduction(f_base[s].trail_exec, f_fish[s].trail_exec);
        std::printf("%-12s %11.1f%% %11.1f%%   (paper: %s)\n",
                    label.c_str(), rl, rb,
                    s ? "0.3%% vs 55%%" : "1.1%% vs 10%%");
        report.metric(label + ".larger_tlb_reduction_pct", rl);
        report.metric(label + ".babelfish_reduction_pct", rb);
        report.addRun(label + ".baseline", f_base[s].artifacts);
        report.addRun(label + ".larger_tlb", f_big[s].artifacts);
        report.addRun(label + ".babelfish", f_fish[s].artifacts);
    }
    report.write();
    return 0;
}
