/**
 * @file
 * Experiment A1 — ablations of the BabelFish design choices DESIGN.md
 * calls out:
 *
 *  1. The ORPC short-circuit (Fig. 5(b)): without it, every L2 TLB
 *     access pays the long (PC-bitmask) access time.
 *  2. ASLR-HW vs ASLR-SW (§IV-D): ASLR-SW shares L1 TLB entries and
 *     skips the 2-cycle transform, at weaker per-process randomization.
 *  3. The PC bitmask itself (§VII-D): the no-PC-bitmask design stops
 *     sharing a whole PMD table set on the first CoW write.
 *  4. Container co-location density: the paper is conservative at 2
 *     containers/core; savings grow with density.
 *
 * All cells are independent Systems and run concurrently (BF_JOBS).
 */

#include "bench/common.hh"

using namespace bfbench;

namespace
{

/** Total 8-container fleet bring-up (see ablation 3 below). */
std::pair<double, RunArtifacts>
fleetBringup(core::SystemParams params, const RunConfig &cfg)
{
    params.num_cores = 1;
    // Fine-grained interleaving: the fleet's bring-ups overlap.
    params.core.quantum = msToCycles(0.1);
    const auto sys = makeSystem(params, cfg, "functions-fleet");
    std::vector<workloads::FunctionProfile> profiles(
        8, workloads::FunctionProfile::parse());
    for (auto &p : profiles) {
        p.input_bytes = 1 << 20;   // bring-up dominated
        p.bringup_cow_pages = 128; // config-heavy runtime init
    }
    auto group = workloads::buildFaasGroup(sys->kernel(), profiles,
                                           cfg.seed);
    std::vector<std::unique_ptr<workloads::FunctionThread>> th;
    for (unsigned i = 0; i < profiles.size(); ++i) {
        th.push_back(std::make_unique<workloads::FunctionThread>(
            group.profiles[i], group.containers[i], true,
            cfg.seed + 31 * i));
        // Containers launch staggered, as a scale-out burst does:
        // early ones are already CoW-ing their config while late ones
        // are still reading it.
        sys->addThread(0, th.back().get());
        sys->run(msToCycles(1));
    }
    sys->runUntilFinished(msToCycles(4000));
    double total = static_cast<double>(group.bringup_work);
    for (auto &t : th)
        total += static_cast<double>(t->bringupCycles());
    return { total, captureArtifacts(*sys) };
}

} // namespace

int
main()
{
    const RunConfig cfg = RunConfig::fromEnv();
    const auto profile = workloads::AppProfile::mongodb();
    BenchReport report("ablations");
    reportConfig(report, cfg);

    // ---- Fan every independent cell out across the workers.
    RunResult base, fish, no_orpc, aslr_sw;
    std::pair<double, RunArtifacts> fleet_base, fleet_full, fleet_nomask;
    RunResult share_run[2];
    const unsigned densities[] = { 1, 2, 3, 4 };
    RunResult dens_base[4], dens_fish[4];
    const auto http = workloads::AppProfile::httpd();

    std::vector<std::function<void()>> jobs;
    jobs.push_back([&] {
        base = runApp(profile, core::SystemParams::baseline(), cfg);
    });
    jobs.push_back([&] {
        fish = runApp(profile, core::SystemParams::babelfish(), cfg);
    });
    jobs.push_back([&] {
        auto params = core::SystemParams::babelfish();
        params.mmu.force_long_l2 = true;
        no_orpc = runApp(profile, params, cfg);
    });
    jobs.push_back([&] {
        auto params = core::SystemParams::babelfish();
        params.kernel.aslr = vm::AslrMode::Sw;
        params.mmu.aslr = vm::AslrMode::Sw;
        aslr_sw = runApp(profile, params, cfg);
    });
    jobs.push_back([&] {
        fleet_base = fleetBringup(core::SystemParams::baseline(), cfg);
    });
    jobs.push_back([&] {
        fleet_full = fleetBringup(core::SystemParams::babelfish(), cfg);
    });
    jobs.push_back([&] {
        auto params = core::SystemParams::babelfish();
        params.kernel.max_cow_writers = 0;
        fleet_nomask = fleetBringup(params, cfg);
    });
    for (int level = 1; level <= 2; ++level) {
        jobs.push_back([&, level] {
            auto params = core::SystemParams::babelfish();
            params.kernel.max_share_level = level;
            share_run[level - 1] = runApp(http, params, cfg);
        });
    }
    for (int d = 0; d < 4; ++d) {
        jobs.push_back([&, d] {
            RunConfig dcfg = cfg;
            dcfg.containers_per_core = densities[d];
            dens_base[d] =
                runApp(http, core::SystemParams::baseline(), dcfg);
        });
        jobs.push_back([&, d] {
            RunConfig dcfg = cfg;
            dcfg.containers_per_core = densities[d];
            dens_fish[d] =
                runApp(http, core::SystemParams::babelfish(), dcfg);
        });
    }
    runJobs(cfg, std::move(jobs));

    std::printf("Ablations (MongoDB profile, mean request latency)\n");
    rule();

    std::printf("%-34s %12.0f  %6s\n", "Baseline (conventional)",
                base.mean_latency, "--");
    std::printf("%-34s %12.0f  %5.1f%%\n", "BabelFish (default, ASLR-HW)",
                fish.mean_latency,
                reduction(base.mean_latency, fish.mean_latency));
    report.metric("babelfish_reduction_pct",
                  reduction(base.mean_latency, fish.mean_latency));
    report.addRun("mongodb.baseline", base.artifacts);
    report.addRun("mongodb.babelfish", fish.artifacts);

    // 1. No ORPC short-circuit: every L2 TLB access pays the long
    // (PC-bitmask) time instead of only the ORPC-flagged ones.
    std::printf("%-34s %12.0f  %5.1f%%  (long L2 accesses: "
                "%.1f%% -> %.1f%%)\n",
                "  - without ORPC bit", no_orpc.mean_latency,
                reduction(base.mean_latency, no_orpc.mean_latency),
                100.0 * fish.l2_long_frac, 100.0 * no_orpc.l2_long_frac);
    report.metric("no_orpc_reduction_pct",
                  reduction(base.mean_latency, no_orpc.mean_latency));
    report.addRun("mongodb.no_orpc", no_orpc.artifacts);

    // 2. ASLR-SW: L1 sharing on, no transform penalty.
    std::printf("%-34s %12.0f  %5.1f%%\n",
                "  - ASLR-SW (L1 sharing, no xform)", aslr_sw.mean_latency,
                reduction(base.mean_latency, aslr_sw.mean_latency));
    report.metric("aslr_sw_reduction_pct",
                  reduction(base.mean_latency, aslr_sw.mean_latency));
    report.addRun("mongodb.aslr_sw", aslr_sw.artifacts);

    rule();

    // 3. No PC bitmask: the first CoW write unshares a whole PMD table
    // set. The effect needs a fleet: while a few containers CoW config
    // pages, the many others should keep sharing (paper §III-A,
    // "Rationale for Supporting CoW Sharing"). We bring up 8 function
    // containers together and sum their bring-up times.
    std::printf("No-PC-bitmask design (8-container fleet, total "
                "bring-up):\n");
    std::printf("%-34s %12.2f  %6s\n", "  Baseline",
                fleet_base.first / 1e6, "--");
    std::printf("%-34s %12.2f  %5.1f%%\n", "  BabelFish (PC bitmask)",
                fleet_full.first / 1e6,
                reduction(fleet_base.first, fleet_full.first));
    std::printf("%-34s %12.2f  %5.1f%%\n", "  no PC bitmask",
                fleet_nomask.first / 1e6,
                reduction(fleet_base.first, fleet_nomask.first));
    report.metric("fleet_bringup_reduction_pct",
                  reduction(fleet_base.first, fleet_full.first));
    report.metric("fleet_bringup_nomask_reduction_pct",
                  reduction(fleet_base.first, fleet_nomask.first));
    report.addRun("fleet.baseline", fleet_base.second);
    report.addRun("fleet.babelfish", fleet_full.second);
    report.addRun("fleet.no_pc_bitmask", fleet_nomask.second);

    rule();

    // 4. Page-table sharing level (paper §III-B): the default fuses the
    // tables holding leaf entries (PTE tables); level 2 additionally
    // fuses PMD tables of read-only regions at fork, so one shared
    // pointer covers 1 GB of mappings.
    std::printf("Sharing level (HTTPd profile):\n");
    std::printf("%-10s %16s %14s\n", "level", "fork work Kcyc",
                "mean latency");
    for (int level = 1; level <= 2; ++level) {
        std::printf("%-10d %16.1f %14.0f\n", level,
                    share_run[level - 1].fork_work / 1e3,
                    share_run[level - 1].mean_latency);
        report.metric("share_level" + std::to_string(level) +
                          ".fork_kcycles",
                      share_run[level - 1].fork_work / 1e3);
    }
    rule();

    // 5. Co-location density sweep.
    std::printf("Co-location density (containers per core, HTTPd "
                "profile):\n");
    std::printf("%-8s %14s %14s %10s\n", "density", "base dMPKI",
                "bf dMPKI", "reduction");
    std::vector<std::pair<double, double>> density_curve;
    for (int d = 0; d < 4; ++d) {
        const double red =
            reduction(dens_base[d].data_mpki, dens_fish[d].data_mpki);
        std::printf("%-8u %14.4f %14.4f %9.1f%%\n", densities[d],
                    dens_base[d].data_mpki, dens_fish[d].data_mpki, red);
        density_curve.emplace_back(densities[d], red);
    }
    report.addSeries("density_sweep", "containers_per_core",
                     "data_mpki_reduction_pct", density_curve);
    rule();
    std::printf("(expected: larger co-location -> larger BabelFish "
                "advantage; ORPC and the PC\n bitmask each preserve "
                "part of the gain; ASLR-SW is slightly faster than "
                "ASLR-HW)\n");
    report.write();
    return 0;
}
