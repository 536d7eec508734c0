/**
 * @file
 * Tests for munmap (sharer-counter decrements via pointer removal,
 * paper §IV-B) and the trace-replay thread.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hh"
#include "vm/kernel.hh"
#include "workloads/trace.hh"

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

// ---------------------------------------------------------------------
// munmap
// ---------------------------------------------------------------------

TEST(Munmap, RemovesVmaAndTranslations)
{
    Kernel kernel(kparams());
    const Ccid g = kernel.createGroup("g", 1);
    Process *p = kernel.createProcess(g, "p");
    MappedObject *f = kernel.createFile("f", 4 << 20);
    f->preload(kernel.frames());
    kernel.mmapObject(*p, f, kVa, 4 << 20, 0, false, false, false);
    kernel.handleFault(*p, kVa, AccessType::Read);

    const Cycles work = kernel.munmap(*p, kVa);
    EXPECT_GT(work, 0u);
    EXPECT_EQ(p->findVma(kVa), nullptr);
    unsigned translations = 0;
    kernel.forEachTranslation(*p, [&](Addr, const Entry &, PageSize) {
        ++translations;
    });
    EXPECT_EQ(translations, 0u);
    // Faults there are now protection faults.
    EXPECT_EQ(kernel.handleFault(*p, kVa, AccessType::Read).kind,
              FaultKind::Protection);
}

TEST(Munmap, DecrementsSharerCounter)
{
    // Paper §IV-B: the counter drops when a sharer "removes its pointer
    // to the table", and the table is unmapped at zero.
    Kernel kernel(kparams());
    const Ccid g = kernel.createGroup("g", 1);
    Process *a = kernel.createProcess(g, "a");
    Process *b = kernel.createProcess(g, "b");
    MappedObject *f = kernel.createFile("f", 4 << 20);
    f->preload(kernel.frames());
    kernel.mmapObject(*a, f, kVa, 4 << 20, 0, false, false, false);
    kernel.mmapObject(*b, f, kVa, 4 << 20, 0, false, false, false);
    kernel.handleFault(*a, kVa, AccessType::Read);
    kernel.handleFault(*b, kVa, AccessType::Read);

    PageTablePage *pud =
        kernel.tableByFrame(a->pgd()->entryFor(kVa).frame());
    PageTablePage *pmd = kernel.tableByFrame(pud->entryFor(kVa).frame());
    PageTablePage *leaf = kernel.tableByFrame(pmd->entryFor(kVa).frame());
    const Ppn leaf_frame = leaf->frame();
    ASSERT_EQ(leaf->sharers, 2u);

    kernel.munmap(*a, kVa);
    EXPECT_EQ(leaf->sharers, 1u);
    // b's view is untouched.
    EXPECT_EQ(kernel.handleFault(*b, kVa, AccessType::Read).kind,
              FaultKind::None);

    kernel.munmap(*b, kVa);
    EXPECT_EQ(kernel.tableByFrame(leaf_frame), nullptr); // freed
}

TEST(Munmap, RemapAfterUnmapResharesCleanly)
{
    Kernel kernel(kparams());
    const Ccid g = kernel.createGroup("g", 1);
    Process *a = kernel.createProcess(g, "a");
    Process *b = kernel.createProcess(g, "b");
    MappedObject *f = kernel.createFile("f", 4 << 20);
    f->preload(kernel.frames());
    kernel.mmapObject(*a, f, kVa, 4 << 20, 0, false, false, false);
    kernel.mmapObject(*b, f, kVa, 4 << 20, 0, false, false, false);
    kernel.handleFault(*a, kVa, AccessType::Read);
    kernel.handleFault(*b, kVa, AccessType::Read);

    kernel.munmap(*a, kVa);
    kernel.mmapObject(*a, f, kVa, 4 << 20, 0, false, false, false);
    // a re-attaches to the still-live shared table.
    EXPECT_EQ(kernel.handleFault(*a, kVa, AccessType::Read).kind,
              FaultKind::SharedInstall);
}

TEST(Munmap, FlushesTlb)
{
    core::SystemParams sp = core::SystemParams::babelfish();
    sp.num_cores = 1;
    sp.kernel.mem_frames = 1 << 22;
    core::System sys(sp);
    Kernel &kernel = sys.kernel();
    const Ccid g = kernel.createGroup("g", 1);
    Process *p = kernel.createProcess(g, "p");
    MappedObject *f = kernel.createFile("f", 4 << 20);
    f->preload(kernel.frames());
    kernel.mmapObject(*p, f, kVa, 4 << 20, 0, false, false, false);
    sys.core(0).mmu().translate(*p, kVa, AccessType::Read, 0);
    kernel.munmap(*p, kVa);
    EXPECT_EQ(sys.core(0).mmu().l2(PageSize::Size4K).probe(kVa >> 12,
                                                           p->pcid()),
              nullptr);
}

TEST(Munmap, TableAccountingBalanced)
{
    Kernel kernel(kparams());
    const Ccid g = kernel.createGroup("g", 1);
    Process *p = kernel.createProcess(g, "p");
    MappedObject *f = kernel.createFile("f", 16 << 20);
    f->preload(kernel.frames());

    const auto live0 =
        kernel.tables_allocated.value() - kernel.tables_freed.value();
    for (int round = 0; round < 5; ++round) {
        kernel.mmapObject(*p, f, kVa, 16 << 20, 0, false, false, false);
        for (int i = 0; i < 16; ++i)
            kernel.handleFault(*p, kVa + i * (1 << 20), AccessType::Read);
        kernel.munmap(*p, kVa);
    }
    // Leaf tables are reclaimed; only upper-level tables persist.
    const auto live =
        kernel.tables_allocated.value() - kernel.tables_freed.value();
    EXPECT_LE(live, live0 + 3); // PUD + PMD chain stays
}

TEST(MunmapDeath, UnknownVmaPanics)
{
    Kernel kernel(kparams());
    const Ccid g = kernel.createGroup("g", 1);
    Process *p = kernel.createProcess(g, "p");
    EXPECT_DEATH((void)kernel.munmap(*p, kVa), "no VMA starts at");
}

// ---------------------------------------------------------------------
// Trace replay
// ---------------------------------------------------------------------

TEST(Trace, ParsesKindsAndAddresses)
{
    std::istringstream input(
        "# a comment\n"
        "R 0x1000 200\n"
        "W 4096\n"
        "I 0x2000 50  # trailing comment\n"
        "\n");
    const auto trace = workloads::parseTrace(input);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].type, AccessType::Read);
    EXPECT_EQ(trace[0].va, 0x1000u);
    EXPECT_EQ(trace[0].instrs, 200u);
    EXPECT_EQ(trace[1].type, AccessType::Write);
    EXPECT_EQ(trace[1].va, 4096u);
    EXPECT_EQ(trace[1].instrs, 1u);
    EXPECT_EQ(trace[2].type, AccessType::Ifetch);
}

TEST(TraceDeath, RejectsBadKind)
{
    std::istringstream input("X 0x1000\n");
    EXPECT_EXIT((void)workloads::parseTrace(input),
                ::testing::ExitedWithCode(1), "unknown access kind");
}

TEST(Trace, ThreadReplaysAndLoops)
{
    std::vector<core::MemRef> refs(3);
    refs[0].va = kVa;
    refs[1].va = kVa + 0x1000;
    refs[2].va = kVa + 0x2000;
    workloads::TraceThread thread("t", nullptr, refs, /*loops=*/2);

    std::vector<Addr> seen;
    core::MemRef ref;
    while (thread.next(ref))
        seen.push_back(ref.va);
    EXPECT_EQ(seen.size(), 6u);
    EXPECT_EQ(seen[0], seen[3]);
    EXPECT_TRUE(thread.finished());
    EXPECT_EQ(thread.replayed(), 6u);
}

// The trace is config, rebuilt by the resuming run, so a checkpointed
// cursor can point past the end of a shorter trace: restore must reject
// it rather than let next() read out of bounds.
TEST(Trace, RestoreRejectsCursorPastTrace)
{
    std::vector<core::MemRef> refs(10);
    for (std::size_t i = 0; i < refs.size(); ++i)
        refs[i].va = kVa + i * 0x1000;
    workloads::TraceThread long_thread("t", nullptr, refs);
    core::MemRef ref;
    for (int i = 0; i < 7; ++i)
        ASSERT_TRUE(long_thread.next(ref));
    snap::ArchiveWriter w;
    long_thread.saveState(w);

    refs.resize(5);
    workloads::TraceThread short_thread("t", nullptr, refs);
    snap::ArchiveReader r(w.payload());
    EXPECT_THROW(short_thread.restoreState(r), snap::SnapshotError);
}

TEST(Trace, EndToEndOnSystem)
{
    // Two containers replaying the same trace share translations.
    core::SystemParams sp = core::SystemParams::babelfish();
    sp.num_cores = 1;
    sp.kernel.mem_frames = 1 << 22;
    core::System sys(sp);
    Kernel &kernel = sys.kernel();
    const Ccid g = kernel.createGroup("g", 1);
    MappedObject *f = kernel.createFile("f", 4 << 20);
    f->preload(kernel.frames());

    std::ostringstream text;
    for (int i = 0; i < 64; ++i)
        text << "R 0x" << std::hex << (kVa + i * 0x1000) << std::dec
             << " 100\n";
    std::istringstream input1(text.str()), input2(text.str());

    std::vector<std::unique_ptr<workloads::TraceThread>> threads;
    for (auto *in : {&input1, &input2}) {
        Process *p = kernel.createProcess(g, "t");
        kernel.mmapObject(*p, f, kVa, 4 << 20, 0, false, false, false);
        threads.push_back(std::make_unique<workloads::TraceThread>(
            "t", p, workloads::parseTrace(*in), 3));
        sys.addThread(0, threads.back().get());
    }
    sys.runUntilFinished(msToCycles(100));
    for (auto &t : threads)
        EXPECT_TRUE(t->finished());
    // One fill per page for the whole group: the second replayer rides
    // the first one's CCID-tagged TLB entries (it may not even need the
    // shared-install, like container C in the paper's Fig. 7).
    EXPECT_EQ(kernel.minor_faults.value(), 64u);
    EXPECT_GT(sys.totalTranslateStat(
                  &translate::TranslateStats::l2_data_shared_hits), 0u);
}
