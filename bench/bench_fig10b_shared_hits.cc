/**
 * @file
 * Experiment E3 — paper Fig. 10b: hits on L2 TLB entries brought in by
 * processes other than the one issuing the access ("Shared Hits"), as a
 * fraction of all L2 TLB hits, under BabelFish.
 *
 * Paper reference points: sizable but application-dependent; GraphChi
 * shows ~48% shared hits for instructions and ~12% for data (regular
 * code, low-locality data).
 */

#include "bench/common.hh"

using namespace bfbench;

int
main()
{
    const RunConfig cfg = RunConfig::fromEnv();
    BenchReport report("fig10b_shared_hits");
    reportConfig(report, cfg);

    std::vector<workloads::AppProfile> apps;
    for (auto p : workloads::AppProfile::dataServing())
        apps.push_back(p);
    for (auto p : workloads::AppProfile::compute())
        apps.push_back(p);

    std::vector<AppRunResult> app_fish(apps.size());
    FaasRunResult faas_fish[2];

    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        jobs.push_back([&, i] {
            app_fish[i] =
                runApp(apps[i], core::SystemParams::babelfish(), cfg);
        });
    }
    for (int s = 0; s < 2; ++s) {
        jobs.push_back([&, s] {
            faas_fish[s] =
                runFaas(core::SystemParams::babelfish(), s == 1, cfg);
        });
    }
    runJobs(cfg, std::move(jobs));

    std::printf("Fig. 10b — Shared Hits fraction of all L2 TLB hits "
                "(BabelFish)\n");
    rule();
    std::printf("%-12s %12s %12s\n", "workload", "data", "instruction");
    rule();

    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &fish = app_fish[i];
        std::printf("%-12s %11.1f%% %11.1f%%\n", apps[i].name.c_str(),
                    100.0 * fish.data_shared_frac,
                    100.0 * fish.instr_shared_frac);
        report.metric(apps[i].name + ".data_shared_pct",
                      100.0 * fish.data_shared_frac);
        report.metric(apps[i].name + ".instr_shared_pct",
                      100.0 * fish.instr_shared_frac);
        report.addRun(apps[i].name + ".babelfish", fish.artifacts);
    }
    for (int s = 0; s < 2; ++s) {
        const std::string label = s ? "fn-sparse" : "fn-dense";
        const auto &fish = faas_fish[s];
        std::printf("%-12s %11.1f%% %11.1f%%\n", label.c_str(),
                    100.0 * fish.data_shared_frac,
                    100.0 * fish.instr_shared_frac);
        report.metric(label + ".data_shared_pct",
                      100.0 * fish.data_shared_frac);
        report.metric(label + ".instr_shared_pct",
                      100.0 * fish.instr_shared_frac);
        report.addRun(label + ".babelfish", fish.artifacts);
    }
    rule();
    std::printf("(paper: sizable, pattern-dependent; e.g. GraphChi "
                "~48%% instruction / ~12%% data)\n");
    report.write();
    return 0;
}
