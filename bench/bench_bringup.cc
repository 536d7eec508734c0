/**
 * @file
 * Experiment E8 — paper §VII-C: container bring-up time ("docker start"
 * of a function container from a pre-created image).
 *
 * Bring-up = the kernel's fork work (page-table copying vs fusing) plus
 * the runtime-initialization phase of the function container (loading
 * shared libraries, CoW-ing config pages) executed on the timing core.
 *
 * Paper reference point: BabelFish speeds up function bring-up by 8%;
 * most of the remaining overhead is the Docker engine / kernel
 * interaction.
 */

#include "bench/common.hh"

using namespace bfbench;

int
main()
{
    const RunConfig cfg = RunConfig::fromEnv();
    BenchReport report("bringup");
    reportConfig(report, cfg);

    FaasRunResult results[2];
    std::vector<std::function<void()>> jobs;
    for (int fish = 0; fish < 2; ++fish) {
        jobs.push_back([&, fish] {
            const auto params = fish ? core::SystemParams::babelfish()
                                     : core::SystemParams::baseline();
            results[fish] = runFaas(params, /*sparse=*/false, cfg);
        });
    }
    runJobs(cfg, std::move(jobs));

    std::printf("§VII-C — Function container bring-up time\n");
    rule();
    std::printf("%-12s %14s %14s %14s\n", "config", "fork Kcyc",
                "init Mcyc", "total Mcyc");

    for (int fish = 0; fish < 2; ++fish) {
        const auto &r = results[fish];
        const char *label = fish ? "BabelFish" : "Baseline";
        std::printf("%-12s %14.1f %14.3f %14.3f\n", label,
                    r.fork_work / 1e3, (r.bringup - r.fork_work) / 1e6,
                    r.bringup / 1e6);
        report.metric(std::string(label) + ".bringup_cycles", r.bringup);
        report.metric(std::string(label) + ".fork_cycles", r.fork_work);
        report.addRun(fish ? "babelfish" : "baseline", r.artifacts);
    }
    rule();
    const double red = reduction(results[0].bringup, results[1].bringup);
    std::printf("bring-up time reduction: %.1f%%   (paper: 8%%)\n", red);
    report.metric("bringup_reduction_pct", red);
    report.write();
    return 0;
}
