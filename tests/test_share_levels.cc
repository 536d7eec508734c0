/**
 * @file
 * Higher-level page-table sharing (paper §III-B): with
 * max_share_level >= 2, fork points PUD entries of read-only regions at
 * the same PMD table, whose entries point at the same PTE tables —
 * multiplying the mappings one shared pointer covers.
 */

#include <gtest/gtest.h>

#include "vm/kernel.hh"

using namespace bf;
using namespace bf::vm;

namespace
{

KernelParams
kparams(int share_level)
{
    KernelParams p;
    p.babelfish = true;
    p.max_share_level = share_level;
    p.aslr = AslrMode::Sw;
    p.mem_frames = 1 << 22;
    return p;
}

constexpr Addr kVa = 0x7f00'0000'0000ull; // 1 GB-aligned (Mmap base)

/** Parent with a read-only library spanning several 2 MB regions. */
struct Fixture
{
    Kernel kernel;
    Ccid ccid;
    Process *parent;
    MappedObject *lib;

    explicit Fixture(int share_level, std::uint64_t lib_bytes = 16 << 20,
                     bool writable = false)
        : kernel(kparams(share_level))
    {
        ccid = kernel.createGroup("g", 1);
        parent = kernel.createProcess(ccid, "parent");
        lib = kernel.createFile("lib", lib_bytes);
        lib->preload(kernel.frames());
        kernel.mmapObject(*parent, lib, kVa, lib_bytes, 0, writable,
                          !writable, false);
        for (Addr va = kVa; va < kVa + lib_bytes; va += basePageBytes)
            kernel.handleFault(*parent, va,
                               writable ? AccessType::Read
                                        : AccessType::Ifetch);
    }

    PageTablePage *
    pmdOf(Process *p)
    {
        PageTablePage *pud =
            kernel.tableByFrame(p->pgd()->entryFor(kVa).frame());
        return kernel.tableByFrame(pud->entryFor(kVa).frame());
    }
};

} // namespace

TEST(ShareLevels, DefaultLevelSharesOnlyLeafTables)
{
    Fixture f(1);
    Process *child = f.kernel.fork(*f.parent, "child");
    // PMD tables are private copies; PTE tables are shared.
    EXPECT_NE(f.pmdOf(f.parent), f.pmdOf(child));
    EXPECT_EQ(f.pmdOf(f.parent)->entryFor(kVa).frame(),
              f.pmdOf(child)->entryFor(kVa).frame());
}

TEST(ShareLevels, Level2SharesPmdTableOfReadOnlyRegion)
{
    Fixture f(2);
    Process *child = f.kernel.fork(*f.parent, "child");
    PageTablePage *pmd = f.pmdOf(f.parent);
    EXPECT_EQ(pmd, f.pmdOf(child));
    EXPECT_TRUE(pmd->group_shared);
    EXPECT_EQ(pmd->sharers, 2u);
    EXPECT_EQ(pmd->level(), LevelPmd);
    // The PTE tables below keep their single pointer (from the shared
    // PMD), not one per process.
    PageTablePage *pte = f.kernel.tableByFrame(pmd->entryFor(kVa).frame());
    EXPECT_TRUE(pte->group_shared);
    EXPECT_EQ(pte->sharers, 1u);
}

TEST(ShareLevels, Level2CheaperForkThanLevel1)
{
    auto cost = [](int level) {
        Fixture f(level, 64 << 20);
        Cycles work = 0;
        f.kernel.fork(*f.parent, "child", work);
        return work;
    };
    EXPECT_LT(cost(2), cost(1));
}

TEST(ShareLevels, WritableRegionNotSharedAtPmdLevel)
{
    Fixture f(2, 16 << 20, /*writable=*/true);
    Process *child = f.kernel.fork(*f.parent, "child");
    // CoW must stay possible: the PMD stays private per process...
    EXPECT_NE(f.pmdOf(f.parent), f.pmdOf(child));
    // ... while the leaf tables still fuse.
    EXPECT_EQ(f.pmdOf(f.parent)->entryFor(kVa).frame(),
              f.pmdOf(child)->entryFor(kVa).frame());
}

TEST(ShareLevels, SecondForkJoinsSharedPmd)
{
    Fixture f(2);
    f.kernel.fork(*f.parent, "c1");
    f.kernel.fork(*f.parent, "c2");
    EXPECT_EQ(f.pmdOf(f.parent)->sharers, 3u);
}

TEST(ShareLevels, ExitCascadesThroughSharedPmd)
{
    Fixture f(2);
    Process *child = f.kernel.fork(*f.parent, "child");
    PageTablePage *pmd = f.pmdOf(f.parent);
    PageTablePage *pte = f.kernel.tableByFrame(pmd->entryFor(kVa).frame());
    const Ppn pmd_frame = pmd->frame();
    const Ppn pte_frame = pte->frame();

    f.kernel.exitProcess(*child);
    EXPECT_EQ(pmd->sharers, 1u);
    EXPECT_NE(f.kernel.tableByFrame(pmd_frame), nullptr);

    f.kernel.exitProcess(*f.parent);
    // Last pointer gone: the shared PMD and its PTE children are freed.
    EXPECT_EQ(f.kernel.tableByFrame(pmd_frame), nullptr);
    EXPECT_EQ(f.kernel.tableByFrame(pte_frame), nullptr);
}

TEST(ShareLevels, DemandAttachBelowSharedPmdStillWorks)
{
    Fixture f(2);
    f.kernel.fork(*f.parent, "c1");
    // A non-forked group member maps the same library and demand-faults:
    // it attaches at the PTE level (demand sharing stays leaf-level).
    Process *fresh = f.kernel.createProcess(f.ccid, "fresh");
    f.kernel.mmapObject(*fresh, f.lib, kVa, 16 << 20, 0, false, true,
                        false);
    EXPECT_EQ(f.kernel.handleFault(*fresh, kVa, AccessType::Ifetch).kind,
              FaultKind::SharedInstall);
    PageTablePage *pmd = f.pmdOf(f.parent);
    PageTablePage *pte = f.kernel.tableByFrame(pmd->entryFor(kVa).frame());
    // Two pointers now: the shared PMD plus fresh's private PMD.
    EXPECT_EQ(pte->sharers, 2u);

    // And tearing everything down leaves no dangling table.
    const Ppn pte_frame = pte->frame();
    f.kernel.exitProcess(*fresh);
    EXPECT_EQ(pte->sharers, 1u);
    f.kernel.exitProcess(*f.kernel.groupMembers(f.ccid)[1]); // c1
    f.kernel.exitProcess(*f.parent);
    EXPECT_EQ(f.kernel.tableByFrame(pte_frame), nullptr);
}

TEST(ShareLevels, NoTableLeaksAcrossChurnAtLevel2)
{
    Fixture f(2);
    const auto live0 = f.kernel.tables_allocated.value() -
                       f.kernel.tables_freed.value();
    for (int round = 0; round < 10; ++round) {
        Process *c = f.kernel.fork(*f.parent, "c");
        f.kernel.handleFault(*c, kVa, AccessType::Ifetch);
        f.kernel.exitProcess(*c);
        EXPECT_EQ(f.kernel.tables_allocated.value() -
                      f.kernel.tables_freed.value(),
                  live0 + 0)
            << "round " << round;
    }
}
