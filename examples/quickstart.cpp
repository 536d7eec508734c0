/**
 * @file
 * Quickstart: simulate two containers of one application sharing address
 * translations, and compare Baseline vs BabelFish.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/system.hh"
#include "workloads/apps.hh"

using namespace bf;

namespace
{

struct RunResult
{
    double l2_data_mpki;
    double l2_instr_mpki;
    double shared_hit_fraction;
    std::uint64_t minor_faults;
    std::uint64_t shared_installs;
};

RunResult
run(const core::SystemParams &params)
{
    core::System sys(params);

    // One application (HTTPd profile), two containers, both on core 0 —
    // the paper's conservative co-location.
    auto profile = workloads::AppProfile::httpd();
    auto app = workloads::buildApp(sys.kernel(), profile,
                                   /*num_containers=*/2, /*seed=*/7);
    auto threads = workloads::makeAppThreads(app, /*seed=*/7);
    for (auto &thread : threads)
        sys.addThread(0, thread.get());

    sys.run(msToCycles(4));   // warm up OS + architecture state
    sys.resetStats();
    sys.run(msToCycles(8));   // measure

    RunResult r{};
    const double kilo_instr =
        static_cast<double>(sys.totalInstructions()) / 1000.0;
    using TS = translate::TranslateStats;
    r.l2_data_mpki = sys.totalTranslateStat(&TS::l2_data_misses) / kilo_instr;
    r.l2_instr_mpki =
        sys.totalTranslateStat(&TS::l2_instr_misses) / kilo_instr;
    const auto hits = sys.totalTranslateStat(&TS::l2_data_hits) +
                      sys.totalTranslateStat(&TS::l2_instr_hits);
    const auto shared = sys.totalTranslateStat(&TS::l2_data_shared_hits) +
                        sys.totalTranslateStat(&TS::l2_instr_shared_hits);
    r.shared_hit_fraction = hits ? static_cast<double>(shared) / hits : 0;
    r.minor_faults = sys.kernel().minor_faults.value();
    r.shared_installs = sys.kernel().shared_installs.value();
    return r;
}

} // namespace

int
main()
{
    bf::detail::setVerbose(false);

    std::printf("BabelFish quickstart: 2 HTTPd containers on one core\n");
    std::printf("----------------------------------------------------\n");

    const RunResult base = run(core::SystemParams::baseline());
    const RunResult fish = run(core::SystemParams::babelfish());

    std::printf("%-28s %12s %12s\n", "metric", "Baseline", "BabelFish");
    std::printf("%-28s %12.3f %12.3f\n", "L2 TLB data MPKI",
                base.l2_data_mpki, fish.l2_data_mpki);
    std::printf("%-28s %12.3f %12.3f\n", "L2 TLB instr MPKI",
                base.l2_instr_mpki, fish.l2_instr_mpki);
    std::printf("%-28s %12.3f %12.3f\n", "L2 shared-hit fraction",
                base.shared_hit_fraction, fish.shared_hit_fraction);
    std::printf("%-28s %12llu %12llu\n", "minor faults (measured run)",
                static_cast<unsigned long long>(base.minor_faults),
                static_cast<unsigned long long>(fish.minor_faults));
    std::printf("%-28s %12llu %12llu\n", "shared table installs",
                static_cast<unsigned long long>(base.shared_installs),
                static_cast<unsigned long long>(fish.shared_installs));
    return 0;
}
