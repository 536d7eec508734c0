/**
 * @file
 * Experiment E2 — paper Fig. 10a: L2 TLB MPKI reduction attained by
 * BabelFish, data and instruction entries separately, for Data Serving,
 * Compute and Function workloads.
 *
 * Paper reference points: Data Serving data MPKI −66%, instruction MPKI
 * −96%; good reductions for Compute; smaller reductions for Functions
 * (short-lived, interfered by the docker engine/OS).
 */

#include "bench/common.hh"

using namespace bfbench;

int
main()
{
    const RunConfig cfg = RunConfig::fromEnv();
    BenchReport report("fig10a_mpki");
    reportConfig(report, cfg);

    std::vector<workloads::AppProfile> apps;
    for (auto p : workloads::AppProfile::dataServing())
        apps.push_back(p);
    for (auto p : workloads::AppProfile::compute())
        apps.push_back(p);

    std::vector<AppRunResult> app_base(apps.size());
    std::vector<AppRunResult> app_fish(apps.size());
    FaasRunResult faas_base[2], faas_fish[2];

    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        jobs.push_back([&, i] {
            app_base[i] =
                runApp(apps[i], core::SystemParams::baseline(), cfg);
        });
        jobs.push_back([&, i] {
            app_fish[i] =
                runApp(apps[i], core::SystemParams::babelfish(), cfg);
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

    std::printf("Fig. 10a — L2 TLB MPKI reduction under BabelFish\n");
    rule();
    std::printf("%-12s %10s %10s %8s | %9s %9s %8s\n", "workload",
                "dMPKI(b)", "dMPKI(bf)", "d-red%", "iMPKI(b)",
                "iMPKI(bf)", "i-red%");
    rule();

    double dsum = 0, isum = 0;
    unsigned count = 0;
    auto row = [&](const std::string &name, double db, double df,
                   double ib, double if_) {
        std::printf("%-12s %10.4f %10.4f %7.1f%% | %9.5f %9.5f %7.1f%%\n",
                    name.c_str(), db, df, reduction(db, df), ib, if_,
                    reduction(ib, if_));
        dsum += reduction(db, df);
        isum += reduction(ib, if_);
        ++count;
        report.metric(name + ".data_mpki_reduction_pct",
                      reduction(db, df));
        report.metric(name + ".instr_mpki_reduction_pct",
                      reduction(ib, if_));
    };

    for (std::size_t i = 0; i < apps.size(); ++i) {
        row(apps[i].name, app_base[i].data_mpki, app_fish[i].data_mpki,
            app_base[i].instr_mpki, app_fish[i].instr_mpki);
        report.addRun(apps[i].name + ".baseline", app_base[i].artifacts);
        report.addRun(apps[i].name + ".babelfish", app_fish[i].artifacts);
    }
    for (int s = 0; s < 2; ++s) {
        const std::string label = s ? "fn-sparse" : "fn-dense";
        row(label, faas_base[s].data_mpki, faas_fish[s].data_mpki,
            faas_base[s].instr_mpki, faas_fish[s].instr_mpki);
        report.addRun(label + ".baseline", faas_base[s].artifacts);
        report.addRun(label + ".babelfish", faas_fish[s].artifacts);
    }

    rule();
    std::printf("mean reduction: data %.1f%%, instruction %.1f%%\n",
                dsum / count, isum / count);
    std::printf("(paper: data serving −66%% data / −96%% instruction; "
                "functions see smaller reductions)\n");
    report.metric("mean.data_mpki_reduction_pct", dsum / count);
    report.metric("mean.instr_mpki_reduction_pct", isum / count);
    report.write();
    return 0;
}
