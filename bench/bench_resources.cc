/**
 * @file
 * Experiment E9 — paper §VII-D: BabelFish resource analysis.
 *
 * Software memory-space overheads, measured from the kernel structures
 * after a representative run:
 *  - one MaskPage (PC bitmasks + pid_list) per 512 pages of pte_ts:
 *    0.19% space overhead;
 *  - one 16-bit sharer counter per 512 pte_ts: 0.048%;
 *  - total 0.238%; without the PC bitmask design, 0.048%.
 *
 * Hardware overheads (CCID + O-PC fields in the L2 TLB) are reported by
 * bench_table3_cacti; the paper estimates +0.4% core area with the PC
 * bitmask and +0.07% without.
 */

#include "bench/common.hh"

using namespace bfbench;

int
main()
{
    RunConfig cfg = RunConfig::fromEnv();
    cfg.num_cores = std::min(cfg.num_cores, 4u);
    BenchReport report("resources");
    reportConfig(report, cfg);

    // Run a fault-heavy mixed workload so MaskPages actually appear.
    const unsigned n = cfg.num_cores * cfg.containers_per_core;
    AppWorld w = buildAppWorld(workloads::AppProfile::mongodb(),
                               core::SystemParams::babelfish(), cfg);
    core::System &sys = *w.sys;
    sys.run(msToCycles(cfg.warm_ms + cfg.measure_ms));

    // Count mapped leaf translations and page-table pages.
    std::uint64_t pte_count = 0;
    std::uint64_t table_pages = 0;
    for (auto *proc : sys.kernel().processes()) {
        sys.kernel().forEachTranslation(
            *proc, [&](Addr, const vm::Entry &, PageSize) { ++pte_count; });
        table_pages += sys.kernel().countTablePages(*proc);
    }

    // MaskPage overhead: one 4 KB MaskPage per PMD table set, which
    // holds 512 pages of pte_ts (paper: 0.19%).
    const double mask_pct = 100.0 * 4096.0 / (512.0 * 4096.0);

    // Counter overhead: 16 bits per 512 pte_ts (each pte_t is 8 B).
    const double counter_pct = 100.0 * 2.0 / (512.0 * 8.0);

    std::printf("§VII-D — BabelFish resource analysis\n");
    rule();
    std::printf("run state: %llu leaf translations, %llu page-table "
                "pages across %u processes\n",
                static_cast<unsigned long long>(pte_count),
                static_cast<unsigned long long>(table_pages), n + 1);
    rule();
    std::printf("%-52s %8s %8s\n", "software structure", "model",
                "paper");
    std::printf("%-52s %7.3f%% %8s\n",
                "MaskPage per 512 pages of pte_ts (PC bitmasks+pids)",
                mask_pct, "0.190%");
    std::printf("%-52s %7.3f%% %8s\n",
                "16-bit sharer counter per 512 pte_ts", counter_pct,
                "0.048%");
    std::printf("%-52s %7.3f%% %8s\n", "total space overhead",
                mask_pct + counter_pct, "0.238%");
    std::printf("%-52s %7.3f%% %8s\n",
                "without PC bitmask (no-CoW-sharing design)", counter_pct,
                "0.048%");
    rule();
    std::printf("hardware (paper estimates): +0.4%% core area with the "
                "PC bitmask, +0.07%% without;\nsee bench_table3_cacti "
                "for the L2 TLB array costs.\n");
    report.metric("leaf_translations", static_cast<double>(pte_count));
    report.metric("table_pages", static_cast<double>(table_pages));
    report.metric("maskpage_overhead_pct", mask_pct);
    report.metric("counter_overhead_pct", counter_pct);
    report.metric("total_overhead_pct", mask_pct + counter_pct);
    report.addRun("mongodb.babelfish", captureArtifacts(sys));
    report.write();
    return 0;
}
