/**
 * @file
 * Integration tests across the whole stack, including the paper's
 * §III-C worked example (containers A, B, C translating the same VPN)
 * and end-to-end Baseline-vs-BabelFish comparisons on real workloads.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hh"
#include "workloads/apps.hh"
#include "workloads/function.hh"

using namespace bf;
using namespace bf::core;

namespace
{

constexpr Addr kVa = 0x7f00'0000'0000ull;

SystemParams
smallSystem(SystemParams base)
{
    base.num_cores = 2;
    base.kernel.mem_frames = 1 << 22;
    return base;
}

} // namespace

// ---------------------------------------------------------------------
// The paper's Fig. 7 example: A on core 0, then B on core 1, then C on
// core 0, all translating VPN0 for the first time.
// ---------------------------------------------------------------------

TEST(PaperExample, SectionIIICTimeline)
{
    // Containers are created by fork (paper §I), so the shared tables
    // are installed before any of A, B, C touches VPN0: the pte_t for
    // VPN0 is "in memory but not yet marked as present" for all three.
    System sys(smallSystem(SystemParams::babelfish()));
    vm::Kernel &kernel = sys.kernel();
    const Ccid g = kernel.createGroup("app", 1);
    auto *file = kernel.createFile("data", 8 << 20);
    file->preload(kernel.frames());

    vm::Process *parent = kernel.createProcess(g, "runtime");
    kernel.mmapObject(*parent, file, kVa, 8 << 20, 0, false, false,
                      false);
    // Parent touches a neighbouring page so the shared leaf table exists
    // at fork time; VPN0 itself stays non-present everywhere.
    kernel.handleFault(*parent, kVa + 0x1000, AccessType::Read);
    vm::Process *a = kernel.fork(*parent, "A");
    vm::Process *b = kernel.fork(*parent, "B");
    vm::Process *c = kernel.fork(*parent, "C");

    Mmu &core0 = sys.core(0).mmu();
    Mmu &core1 = sys.core(1).mmu();
    const auto faults_before = kernel.minor_faults.value();

    // Container A on core 0: full walk + minor page fault.
    const auto ta = core0.translate(*a, kVa, AccessType::Read, 0);
    EXPECT_TRUE(ta.faulted);
    EXPECT_EQ(kernel.minor_faults.value(), faults_before + 1);

    // Container B on core 1: misses its TLB/PWC (per-core structures)
    // but suffers NO page fault, and its pte_t request hits the shared
    // L3 (paper Fig. 7).
    const auto l3_hits = sys.memory().l3().hits.value();
    const auto tb = core1.translate(*b, kVa, AccessType::Read, 0);
    EXPECT_FALSE(tb.faulted);
    EXPECT_EQ(kernel.minor_faults.value(), faults_before + 1);
    EXPECT_GT(sys.memory().l3().hits.value(), l3_hits);
    EXPECT_LT(tb.cycles, ta.cycles);

    // Container C on core 0: hits the L2 TLB entry A loaded (CR3 writes
    // do not flush the TLB, and the entry is CCID-tagged) — a very fast
    // translation with no walk at all.
    const auto walks = core0.walker().walks.value();
    const auto tc = core0.translate(*c, kVa, AccessType::Read, 0);
    EXPECT_FALSE(tc.faulted);
    EXPECT_EQ(core0.walker().walks.value(), walks);
    EXPECT_LT(tc.cycles, tb.cycles);
    EXPECT_LE(tc.cycles, 15u); // L1 miss + transform + L2 hit

    // All three resolved to the same physical page.
    EXPECT_EQ(ta.paddr, tb.paddr);
    EXPECT_EQ(tb.paddr, tc.paddr);
}

TEST(PaperExample, BaselineTimelineReplicatesWork)
{
    System sys(smallSystem(SystemParams::baseline()));
    vm::Kernel &kernel = sys.kernel();
    const Ccid g = kernel.createGroup("app", 1);
    auto *file = kernel.createFile("data", 8 << 20);
    file->preload(kernel.frames());

    vm::Process *parent = kernel.createProcess(g, "runtime");
    kernel.mmapObject(*parent, file, kVa, 8 << 20, 0, false, false,
                      false);
    kernel.handleFault(*parent, kVa + 0x1000, AccessType::Read);
    vm::Process *a = kernel.fork(*parent, "A");
    vm::Process *b = kernel.fork(*parent, "B");
    vm::Process *c = kernel.fork(*parent, "C");
    const auto faults_before = kernel.minor_faults.value();

    sys.core(0).mmu().translate(*a, kVa, AccessType::Read, 0);
    sys.core(1).mmu().translate(*b, kVa, AccessType::Read, 0);
    sys.core(0).mmu().translate(*c, kVa, AccessType::Read, 0);
    // Each container took its own minor fault (paper Fig. 7 top).
    EXPECT_EQ(kernel.minor_faults.value(), faults_before + 3);
    EXPECT_EQ(kernel.shared_installs.value(), 0u);
}

// ---------------------------------------------------------------------
// End-to-end workload comparisons
// ---------------------------------------------------------------------

namespace
{

struct EndToEnd
{
    double data_mpki;
    double instr_mpki;
    std::uint64_t faults;
    double shared_frac;
    std::string stats_dump;
};

EndToEnd
runHttpd(const SystemParams &base, std::uint64_t seed = 7)
{
    SystemParams params = smallSystem(base);
    // Shrink the quantum so both co-located containers actually run
    // within the short test window (benches use the real 10 ms quantum
    // with longer windows).
    params.core.quantum = msToCycles(0.25);
    System sys(params);
    auto profile = workloads::AppProfile::httpd();
    auto app = workloads::buildApp(sys.kernel(), profile, 2, seed);
    auto threads = workloads::makeAppThreads(app, seed);
    sys.addThread(0, threads[0].get());
    sys.addThread(0, threads[1].get());
    sys.run(msToCycles(2));
    sys.resetStats();
    sys.run(msToCycles(4));

    using TS = translate::TranslateStats;
    EndToEnd r;
    const double ki = sys.totalInstructions() / 1000.0;
    r.data_mpki = sys.totalTranslateStat(&TS::l2_data_misses) / ki;
    r.instr_mpki = sys.totalTranslateStat(&TS::l2_instr_misses) / ki;
    r.faults = sys.kernel().minor_faults.value() +
               sys.kernel().cow_faults.value();
    const auto hits = sys.totalTranslateStat(&TS::l2_data_hits) +
                      sys.totalTranslateStat(&TS::l2_instr_hits);
    r.shared_frac =
        hits ? static_cast<double>(
                   sys.totalTranslateStat(&TS::l2_data_shared_hits) +
                   sys.totalTranslateStat(&TS::l2_instr_shared_hits)) /
                   hits
             : 0;
    std::ostringstream oss;
    sys.stats().dump(oss);
    r.stats_dump = oss.str();
    return r;
}

} // namespace

TEST(EndToEnd, BabelFishReducesTlbMisses)
{
    const auto base = runHttpd(SystemParams::baseline());
    const auto fish = runHttpd(SystemParams::babelfish());
    EXPECT_LT(fish.data_mpki, base.data_mpki);
    EXPECT_LT(fish.instr_mpki, base.instr_mpki);
}

TEST(EndToEnd, BabelFishHasSharedHitsBaselineNone)
{
    const auto base = runHttpd(SystemParams::baseline());
    const auto fish = runHttpd(SystemParams::babelfish());
    EXPECT_DOUBLE_EQ(base.shared_frac, 0.0);
    EXPECT_GT(fish.shared_frac, 0.02);
}

TEST(EndToEnd, DeterministicAcrossRuns)
{
    const auto a = runHttpd(SystemParams::babelfish(), 11);
    const auto b = runHttpd(SystemParams::babelfish(), 11);
    EXPECT_EQ(a.stats_dump, b.stats_dump);
}

TEST(EndToEnd, SeedChangesRun)
{
    const auto a = runHttpd(SystemParams::babelfish(), 11);
    const auto b = runHttpd(SystemParams::babelfish(), 12);
    EXPECT_NE(a.stats_dump, b.stats_dump);
}

TEST(EndToEnd, FunctionsFinishFasterUnderBabelFish)
{
    auto run = [](const SystemParams &base) {
        SystemParams params = smallSystem(base);
        params.num_cores = 1;
        System sys(params);
        auto profiles = workloads::FunctionProfile::all();
        for (auto &p : profiles) {
            p.input_bytes = 4 << 20;
            p.bringup_read_bytes = 4 << 20;
            p.bringup_cow_pages = 32;
        }
        auto group = buildFaasGroup(sys.kernel(), profiles, 42);
        std::vector<std::unique_ptr<workloads::FunctionThread>> threads;
        for (unsigned i = 0; i < 3; ++i) {
            threads.push_back(
                std::make_unique<workloads::FunctionThread>(
                    group.profiles[i], group.containers[i],
                    /*sparse=*/true, 100 + i));
            sys.addThread(0, threads.back().get());
        }
        sys.runUntilFinished(msToCycles(2000));
        // Sum exec time of the two trailing functions (the paper skips
        // the leading cold-start function).
        Cycles total = 0;
        for (unsigned i = 1; i < 3; ++i)
            total += threads[i]->execCycles();
        return total;
    };
    const Cycles base = run(SystemParams::baseline());
    const Cycles fish = run(SystemParams::babelfish());
    EXPECT_LT(fish, base);
}

TEST(EndToEnd, KernelStateConsistentAfterRun)
{
    SystemParams params = smallSystem(SystemParams::babelfish());
    System sys(params);
    auto app = workloads::buildApp(sys.kernel(),
                                   workloads::AppProfile::mongodb(), 2, 3);
    auto threads = workloads::makeAppThreads(app, 3);
    sys.addThread(0, threads[0].get());
    sys.addThread(1, threads[1].get());
    sys.run(msToCycles(3));

    // Invariant: within the group, any two translations of the same VA
    // from group-shared tables point at the same frame, and every
    // translation's frame is nonzero.
    for (auto *proc : app.containers) {
        sys.kernel().forEachTranslation(
            *proc, [&](Addr, const vm::Entry &e, PageSize) {
                EXPECT_TRUE(e.present());
                EXPECT_NE(e.frame(), 0u);
            });
    }
}
