/**
 * @file
 * Experiment E1 — paper Fig. 9: page-table sharing characterization.
 *
 * For each application, runs two containers (three functions for FaaS)
 * to steady state, scans the group's page tables the way the paper uses
 * Linux Pagemap, and prints the three bars of Fig. 9: total pte_ts,
 * active pte_ts, and active pte_ts after enabling BabelFish — each split
 * into shareable / unshareable / THP.
 *
 * Paper reference points: on average 53% of containerized-workload
 * translations and ~94% of function translations are shareable; the
 * average reduction in total active pte_ts is 30% (containers) and 57%
 * (functions); THP entries are ~8% of totals and rarely active.
 */

#include "bench/common.hh"

#include "analysis/pagemap.hh"

using namespace bfbench;

namespace
{

/** One scan's result plus its observability output. */
struct ScanResult
{
    analysis::PagemapStats stats;
    RunArtifacts artifacts;
};

void
printRow(const char *name, const analysis::PagemapStats &s)
{
    auto pct = [](std::uint64_t part, std::uint64_t whole) {
        return whole ? 100.0 * static_cast<double>(part) /
                           static_cast<double>(whole)
                     : 0.0;
    };
    std::printf("%-10s %9llu  %5.1f%% /%5.1f%% /%4.1f%%  %9llu  %9llu"
                "  %5.1f%%\n",
                name,
                static_cast<unsigned long long>(s.total),
                pct(s.total_shareable, s.total),
                pct(s.total_unshareable, s.total),
                pct(s.total_thp, s.total),
                static_cast<unsigned long long>(s.active),
                static_cast<unsigned long long>(s.babelfish_active),
                100.0 * s.activeReduction());
}

/** Steady-state scan of one containerized app (baseline kernel). */
ScanResult
scanApp(const workloads::AppProfile &profile, RunConfig cfg)
{
    // Two containers of the app (paper: pairs of containers), one per
    // core.
    cfg.num_cores = 2;
    cfg.containers_per_core = 1;
    AppWorld w =
        buildAppWorld(profile, core::SystemParams::baseline(), cfg);
    core::System &sys = *w.sys;

    // Reach steady state (or restore the warm-up checkpoint), then age
    // the LRU (clear accessed bits) and run one more window so 'active'
    // reflects recent touches.
    warmOrRestore(sys, cfg, profile.name);
    sys.kernel().clearAccessedBits();
    sys.run(msToCycles(cfg.measure_ms));

    std::vector<const vm::Process *> procs(w.app->containers.begin(),
                                           w.app->containers.end());
    return { analysis::scanGroup(sys.kernel(), procs),
             captureArtifacts(sys) };
}

/** Steady-state scan of the three functions. */
ScanResult
scanFunctions(const RunConfig &cfg)
{
    core::SystemParams params = core::SystemParams::baseline();
    params.num_cores = 1;
    params.core.quantum = msToCycles(1);
    const auto sys = makeSystem(params, cfg, "functions-dense");

    auto group = workloads::buildFaasGroup(
        sys->kernel(), workloads::FunctionProfile::all(), cfg.seed);
    std::vector<std::unique_ptr<workloads::FunctionThread>> threads;
    for (unsigned i = 0; i < 3; ++i) {
        threads.push_back(std::make_unique<workloads::FunctionThread>(
            group.profiles[i], group.containers[i], /*sparse=*/false,
            cfg.seed + i));
        sys->addThread(0, threads[i].get());
    }
    sys->runUntilFinished(msToCycles(4000));

    std::vector<const vm::Process *> procs(group.containers.begin(),
                                           group.containers.end());
    return { analysis::scanGroup(sys->kernel(), procs),
             captureArtifacts(*sys) };
}

} // namespace

int
main()
{
    const RunConfig cfg = RunConfig::fromEnv();
    BenchReport report("fig9_pagetable_sharing");
    reportConfig(report, cfg);

    std::vector<workloads::AppProfile> apps;
    for (auto p : workloads::AppProfile::dataServing())
        apps.push_back(p);
    for (auto p : workloads::AppProfile::compute())
        apps.push_back(p);

    std::vector<ScanResult> scans(apps.size());
    ScanResult fn_scan;
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < apps.size(); ++i)
        jobs.push_back([&, i] { scans[i] = scanApp(apps[i], cfg); });
    jobs.push_back([&] { fn_scan = scanFunctions(cfg); });
    runJobs(cfg, std::move(jobs));

    std::printf("Fig. 9 — Page table sharing characterization\n");
    std::printf("(share of total pte_ts: shareable / unshareable / THP;"
                " BabelFish bar fuses shareable active pte_ts)\n");
    rule();
    std::printf("%-10s %9s  %-22s %9s  %9s  %6s\n", "app", "total",
                "share/unshare/thp", "active", "bf-active", "reduct");
    rule();

    double share_sum = 0, reduct_sum = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &stats = scans[i].stats;
        printRow(apps[i].name.c_str(), stats);
        share_sum += stats.shareableFraction();
        reduct_sum += stats.activeReduction();
        report.metric(apps[i].name + ".shareable_pct",
                      100.0 * stats.shareableFraction());
        report.metric(apps[i].name + ".active_reduction_pct",
                      100.0 * stats.activeReduction());
        report.addRun(apps[i].name, scans[i].artifacts);
    }
    rule();
    std::printf("%-10s shareable %4.1f%% (paper: 53%%)   active-pte "
                "reduction %4.1f%% (paper: ~30%%)\n",
                "cont.avg", 100.0 * share_sum / apps.size(),
                100.0 * reduct_sum / apps.size());
    report.metric("containers.shareable_pct",
                  100.0 * share_sum / apps.size());
    report.metric("containers.active_reduction_pct",
                  100.0 * reduct_sum / apps.size());
    rule();

    printRow("functions", fn_scan.stats);
    std::printf("%-10s shareable %4.1f%% (paper: ~94%%)  active-pte "
                "reduction %4.1f%% (paper: 57%%)\n",
                "faas", 100.0 * fn_scan.stats.shareableFraction(),
                100.0 * fn_scan.stats.activeReduction());
    report.metric("functions.shareable_pct",
                  100.0 * fn_scan.stats.shareableFraction());
    report.metric("functions.active_reduction_pct",
                  100.0 * fn_scan.stats.activeReduction());
    report.addRun("functions", fn_scan.artifacts);
    report.write();
    return 0;
}
