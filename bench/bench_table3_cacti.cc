/**
 * @file
 * Experiment E6 — paper Table III: parameters of the L2 TLB at 22 nm,
 * Baseline vs BabelFish, via the CactiLite analytical SRAM model (a
 * stand-in for CACTI 7, calibrated on the paper's baseline point).
 *
 * Paper reference points: Baseline 0.030 mm^2 / 327 ps / 10.22 pJ /
 * 4.16 mW; BabelFish 0.062 mm^2 / 456 ps / 21.97 pJ / 6.22 mW. Both
 * access times stay within a fraction of a 2 GHz cycle; BabelFish adds
 * two cycles only when the PC bitmask must be read.
 */

#include <cstdio>

#include "analysis/cacti_lite.hh"
#include "bench/common.hh"

using namespace bf::analysis;

int
main()
{
    bfbench::RunConfig::fromEnv(); // checks the knobs, sets the log level
    CactiLite cacti;
    bfbench::BenchReport report("table3_cacti");

    const auto base = cacti.evaluate(CactiLite::baselineL2Tlb());
    const auto fish = cacti.evaluate(CactiLite::babelFishL2Tlb());

    std::printf("Table III — Parameters of the L2 TLB at 22 nm "
                "(CactiLite)\n");
    std::printf("----------------------------------------------------"
                "----------------\n");
    std::printf("%-12s %12s %14s %14s %12s\n", "config", "area mm^2",
                "access ps", "dyn energy pJ", "leakage mW");
    std::printf("%-12s %12.3f %14.0f %14.2f %12.2f\n", "Baseline",
                base.area_mm2, base.access_ps, base.dyn_energy_pj,
                base.leakage_mw);
    std::printf("%-12s %12.3f %14.0f %14.2f %12.2f\n", "BabelFish",
                fish.area_mm2, fish.access_ps, fish.dyn_energy_pj,
                fish.leakage_mw);
    std::printf("----------------------------------------------------"
                "----------------\n");
    std::printf("paper:       %12s %14s %14s %12s\n", "0.030/0.062",
                "327/456", "10.22/21.97", "4.16/6.22");
    std::printf("\nBabelFish/Baseline ratios: area %.2fx, access %.2fx, "
                "energy %.2fx, leakage %.2fx\n",
                fish.area_mm2 / base.area_mm2,
                fish.access_ps / base.access_ps,
                fish.dyn_energy_pj / base.dyn_energy_pj,
                fish.leakage_mw / base.leakage_mw);
    std::printf("equal-area conventional L2 TLB would hold %llu entries "
                "(vs 1536)\n",
                static_cast<unsigned long long>(
                    cacti.equalAreaConventionalEntries()));

    report.metric("baseline.area_mm2", base.area_mm2);
    report.metric("baseline.access_ps", base.access_ps);
    report.metric("baseline.dyn_energy_pj", base.dyn_energy_pj);
    report.metric("baseline.leakage_mw", base.leakage_mw);
    report.metric("babelfish.area_mm2", fish.area_mm2);
    report.metric("babelfish.access_ps", fish.access_ps);
    report.metric("babelfish.dyn_energy_pj", fish.dyn_energy_pj);
    report.metric("babelfish.leakage_mw", fish.leakage_mw);
    report.metric("equal_area_conventional_entries",
                  static_cast<double>(
                      cacti.equalAreaConventionalEntries()));

    // Analytic sweep: conventional-array area as the entry count grows,
    // so the equal-area crossover can be plotted from the JSON.
    std::vector<std::pair<double, double>> area_curve;
    for (unsigned entries = 512; entries <= 4096; entries *= 2) {
        auto cfg = CactiLite::baselineL2Tlb();
        cfg.entries = entries;
        area_curve.emplace_back(entries, cacti.evaluate(cfg).area_mm2);
    }
    report.addSeries("conventional_area_vs_entries", "entries",
                     "area_mm2", area_curve);
    report.write();
    return 0;
}
