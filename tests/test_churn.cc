/**
 * @file
 * Container churn: the serverless lifecycle of spawn -> run -> exit,
 * repeated. Exercises sharer counters, shared-table reclamation, TLB
 * invalidation on exit, MaskPage state across generations, and the
 * stability of the kernel under sustained churn.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "vm/kernel.hh"
#include "workloads/function.hh"

using namespace bf;
using namespace bf::vm;

namespace
{

KernelParams
kparams()
{
    KernelParams p;
    p.babelfish = true;
    p.aslr = AslrMode::Sw;
    p.mem_frames = 1 << 22;
    return p;
}

constexpr Addr kVa = 0x7f00'0000'0000ull;

} // namespace

TEST(Churn, TableCountStableAcrossGenerations)
{
    Kernel kernel(kparams());
    const Ccid g = kernel.createGroup("g", 1);
    Process *runtime = kernel.createProcess(g, "runtime");
    MappedObject *lib = kernel.createFile("lib", 8 << 20);
    lib->preload(kernel.frames());
    kernel.mmapObject(*runtime, lib, kVa, 8 << 20, 0, false, true, false);
    for (int i = 0; i < 512; ++i)
        kernel.handleFault(*runtime, kVa + i * basePageBytes,
                           AccessType::Read);

    std::uint64_t live_after_first = 0;
    for (int generation = 0; generation < 20; ++generation) {
        Process *c1 = kernel.fork(*runtime, "c1");
        Process *c2 = kernel.fork(*runtime, "c2");
        for (int i = 0; i < 64; ++i) {
            kernel.handleFault(*c1, kVa + i * basePageBytes,
                               AccessType::Read);
            kernel.handleFault(*c2, kVa + i * basePageBytes,
                               AccessType::Read);
        }
        kernel.exitProcess(*c1);
        kernel.exitProcess(*c2);
        const std::uint64_t live = kernel.tables_allocated.value() -
                                   kernel.tables_freed.value();
        if (generation == 0)
            live_after_first = live;
        else
            EXPECT_EQ(live, live_after_first)
                << "table leak in generation " << generation;
    }
}

TEST(Churn, SharedTableSurvivesWhileAnySharerLives)
{
    Kernel kernel(kparams());
    const Ccid g = kernel.createGroup("g", 1);
    MappedObject *f = kernel.createFile("f", 4 << 20);
    f->preload(kernel.frames());

    Process *a = kernel.createProcess(g, "a");
    kernel.mmapObject(*a, f, kVa, 4 << 20, 0, false, false, false);
    kernel.handleFault(*a, kVa, AccessType::Read);

    // A rolling window of processes: each new one attaches before the
    // previous exits; the shared table must survive throughout.
    Process *prev = a;
    PageTablePage *leaf = nullptr;
    for (int i = 0; i < 10; ++i) {
        Process *next = kernel.createProcess(
            g, std::string("n").append(std::to_string(i)));
        kernel.mmapObject(*next, f, kVa, 4 << 20, 0, false, false, false);
        EXPECT_EQ(kernel.handleFault(*next, kVa, AccessType::Read).kind,
                  FaultKind::SharedInstall);
        PageTablePage *pud =
            kernel.tableByFrame(next->pgd()->entryFor(kVa).frame());
        PageTablePage *pmd =
            kernel.tableByFrame(pud->entryFor(kVa).frame());
        PageTablePage *this_leaf =
            kernel.tableByFrame(pmd->entryFor(kVa).frame());
        if (leaf) {
            EXPECT_EQ(this_leaf, leaf) << "table replaced at gen " << i;
        }
        leaf = this_leaf;
        kernel.exitProcess(*prev);
        prev = next;
        EXPECT_EQ(leaf->sharers, 1u);
    }
    kernel.exitProcess(*prev);
}

TEST(Churn, RespawnAfterFullTeardownRebuildsSharing)
{
    Kernel kernel(kparams());
    const Ccid g = kernel.createGroup("g", 1);
    MappedObject *f = kernel.createFile("f", 4 << 20);
    f->preload(kernel.frames());

    for (int round = 0; round < 5; ++round) {
        Process *a = kernel.createProcess(g, "a");
        Process *b = kernel.createProcess(g, "b");
        kernel.mmapObject(*a, f, kVa, 4 << 20, 0, false, false, false);
        kernel.mmapObject(*b, f, kVa, 4 << 20, 0, false, false, false);
        kernel.handleFault(*a, kVa, AccessType::Read);
        // Sharing re-forms in every round, even though the previous
        // round's table was reclaimed.
        EXPECT_EQ(kernel.handleFault(*b, kVa, AccessType::Read).kind,
                  FaultKind::SharedInstall)
            << "round " << round;
        kernel.exitProcess(*a);
        kernel.exitProcess(*b);
    }
}

TEST(Churn, WriterExitKeepsCleanSharersIntact)
{
    Kernel kernel(kparams());
    const Ccid g = kernel.createGroup("g", 1);
    MappedObject *f = kernel.createFile("f", 4 << 20);
    f->preload(kernel.frames());
    Process *a = kernel.createProcess(g, "a");
    Process *b = kernel.createProcess(g, "b");
    Process *c = kernel.createProcess(g, "c");
    for (auto *p : {a, b, c})
        kernel.mmapObject(*p, f, kVa, 4 << 20, 0, true, false, false);
    for (auto *p : {a, b, c})
        kernel.handleFault(*p, kVa, AccessType::Read);

    // b privatizes, then exits; a and c still share the clean page.
    kernel.handleFault(*b, kVa, AccessType::Write);
    kernel.exitProcess(*b);

    bool dummy = false;
    const Ppn clean = f->frameFor(0, kernel.frames(), dummy);
    for (auto *p : {a, c}) {
        Ppn got = 0;
        kernel.forEachTranslation(*p, [&](Addr va, const Entry &e,
                                          PageSize) {
            if (va == kVa)
                got = e.frame();
        });
        EXPECT_EQ(got, clean);
    }
    // The MaskPage still records the departed writer's bit; a new
    // writer gets the next bit.
    kernel.handleFault(*c, kVa, AccessType::Write);
    MaskPage *mask = kernel.maskFor(g, kVa);
    ASSERT_NE(mask, nullptr);
    EXPECT_EQ(mask->bitFor(c->pid()), 1);
}

TEST(Churn, ExitFlushesTlbState)
{
    core::SystemParams sp = core::SystemParams::babelfish();
    sp.num_cores = 1;
    sp.kernel.mem_frames = 1 << 22;
    core::System sys(sp);
    Kernel &kernel = sys.kernel();
    const Ccid g = kernel.createGroup("g", 1);
    MappedObject *f = kernel.createFile("f", 4 << 20);
    f->preload(kernel.frames());

    Process *a = kernel.createProcess(g, "a");
    kernel.mmapObject(*a, f, kVa, 4 << 20, 0, false, false, false);
    auto &mmu = sys.core(0).mmu();
    mmu.translate(*a, kVa, AccessType::Read, 0);
    const Pcid pcid = a->pcid();
    kernel.exitProcess(*a);
    // No entry under the dead PCID survives.
    EXPECT_EQ(mmu.l2(PageSize::Size4K).probe(kVa >> 12, pcid), nullptr);
    EXPECT_EQ(mmu.l1d(PageSize::Size4K).probe(kVa >> 12, pcid), nullptr);
}

TEST(Churn, FaasBurstsBackToBack)
{
    // Three consecutive serverless bursts in one System: every burst
    // completes, and the page cache + image sharing persists across
    // bursts (later bursts take no major faults).
    core::SystemParams sp = core::SystemParams::babelfish();
    sp.num_cores = 1;
    sp.core.quantum = msToCycles(1);
    sp.kernel.mem_frames = 1 << 22;
    core::System sys(sp);

    auto profiles = workloads::FunctionProfile::all();
    for (auto &p : profiles) {
        p.input_bytes = 1 << 20;
        p.bringup_read_bytes = 1 << 20;
        p.bringup_cow_pages = 8;
    }

    std::uint64_t majors_after_first = 0;
    for (int burst = 0; burst < 3; ++burst) {
        auto group = buildFaasGroup(sys.kernel(), profiles,
                                    100 + burst);
        std::vector<std::unique_ptr<workloads::FunctionThread>> threads;
        for (unsigned i = 0; i < 3; ++i) {
            threads.push_back(
                std::make_unique<workloads::FunctionThread>(
                    group.profiles[i], group.containers[i], false,
                    200 + i));
            sys.addThread(0, threads.back().get());
        }
        sys.runUntilFinished(msToCycles(2000));
        for (auto &t : threads)
            EXPECT_TRUE(t->finished()) << "burst " << burst;
        for (auto *proc : group.containers)
            sys.kernel().exitProcess(*proc);
        sys.kernel().exitProcess(*group.runtime);
        sys.core(0).clearThreads();

        if (burst == 0)
            majors_after_first = sys.kernel().major_faults.value();
        else
            EXPECT_EQ(sys.kernel().major_faults.value(),
                      majors_after_first)
                << "cold page-cache misses in burst " << burst;
    }
}
