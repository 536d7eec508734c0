/**
 * @file
 * CoW privatization in shared tables (paper §III-A and the Appendix):
 * MaskPage bookkeeping, 512-entry private copies with Ownership bits,
 * ORPC propagation, the single-entry shared shootdown, and the
 * >32-writer fallback.
 */

#include <gtest/gtest.h>

#include <vector>

#include "vm/kernel.hh"

using namespace bf;
using namespace bf::vm;

namespace
{

constexpr Addr kVa = 0x7f00'0000'0000ull;
constexpr Addr k2M = 2ull << 20;

KernelParams
params()
{
    KernelParams p;
    p.babelfish = true;
    p.aslr = AslrMode::Sw;
    p.mem_frames = 1 << 22;
    return p;
}

/** N processes privately mapping the same writable file. */
struct Fixture
{
    Kernel kernel;
    Ccid ccid;
    std::vector<Process *> procs;
    MappedObject *file;
    std::vector<TlbInvalidate> invalidations;

    explicit Fixture(unsigned n) : kernel(params())
    {
        kernel.setTlbInvalidateHook([this](const TlbInvalidate &inv) {
            invalidations.push_back(inv);
        });
        ccid = kernel.createGroup("g", 1);
        file = kernel.createFile("f", 64 << 20);
        file->preload(kernel.frames());
        for (unsigned i = 0; i < n; ++i) {
            Process *p = kernel.createProcess(
                ccid, std::string("p").append(std::to_string(i)));
            kernel.mmapObject(*p, file, kVa, 64 << 20, 0,
                              /*writable=*/true, false, /*shared=*/false);
            procs.push_back(p);
        }
    }

    Entry
    pmdEntry(Process *p, Addr va)
    {
        PageTablePage *pud =
            kernel.tableByFrame(p->pgd()->entryFor(va).frame());
        PageTablePage *pmd =
            kernel.tableByFrame(pud->entryFor(va).frame());
        return pmd->entryFor(va);
    }

    PageTablePage *
    leafOf(Process *p, Addr va)
    {
        return kernel.tableByFrame(pmdEntry(p, va).frame());
    }

    Entry
    pte(Process *p, Addr va)
    {
        return leafOf(p, va)->entryFor(va);
    }
};

} // namespace

TEST(Cow, WriterPrivatizesLeafTable)
{
    Fixture f(2);
    f.kernel.handleFault(*f.procs[0], kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Read);
    PageTablePage *shared = f.leafOf(f.procs[0], kVa);
    ASSERT_EQ(shared, f.leafOf(f.procs[1], kVa));

    // P1 writes: it gets a private 512-entry table with O bits.
    EXPECT_EQ(f.kernel.handleFault(*f.procs[1], kVa,
                                   AccessType::Write).kind,
              FaultKind::Cow);

    PageTablePage *priv = f.leafOf(f.procs[1], kVa);
    EXPECT_NE(priv, shared);
    EXPECT_FALSE(priv->group_shared);
    EXPECT_TRUE(f.pmdEntry(f.procs[1], kVa).owned());
    EXPECT_TRUE(f.pte(f.procs[1], kVa).owned());
    EXPECT_TRUE(f.pte(f.procs[1], kVa).writable());
    // New private frame for the written page only.
    EXPECT_NE(f.pte(f.procs[1], kVa).frame(),
              f.pte(f.procs[0], kVa).frame());
    // P0 still uses the clean shared view.
    EXPECT_EQ(f.leafOf(f.procs[0], kVa), shared);
    EXPECT_TRUE(f.pte(f.procs[0], kVa).cow());
    EXPECT_EQ(f.kernel.cow_privatizations.value(), 1u);
}

TEST(Cow, CopiedEntriesKeepSharedFrames)
{
    // Only the written page gets a new frame; the other (up to 511)
    // translations in the private copy still point at the shared frames.
    Fixture f(2);
    f.kernel.handleFault(*f.procs[0], kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[0], kVa + 0x1000, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Write);

    EXPECT_EQ(f.pte(f.procs[1], kVa + 0x1000).frame(),
              f.pte(f.procs[0], kVa + 0x1000).frame());
    EXPECT_TRUE(f.pte(f.procs[1], kVa + 0x1000).owned());
    EXPECT_TRUE(f.pte(f.procs[1], kVa + 0x1000).cow());
}

TEST(Cow, MaskPageTracksWriter)
{
    Fixture f(2);
    f.kernel.handleFault(*f.procs[0], kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Write);

    MaskPage *mask = f.kernel.maskFor(f.ccid, kVa);
    ASSERT_NE(mask, nullptr);
    EXPECT_EQ(mask->writerCount(), 1u);
    EXPECT_EQ(mask->bitFor(f.procs[1]->pid()), 0);
    EXPECT_TRUE(mask->orpc(tableIndex(kVa, LevelPmd)));
    EXPECT_EQ(mask->bitmaskFor(kVa), 1u);
    EXPECT_EQ(f.kernel.processBit(*f.procs[1], kVa), 0);
    EXPECT_EQ(f.kernel.processBit(*f.procs[0], kVa), -1);
}

TEST(Cow, OrpcPropagatesToRemainingSharers)
{
    Fixture f(3);
    for (auto *p : f.procs)
        f.kernel.handleFault(*p, kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[2], kVa, AccessType::Write);

    // The two remaining sharers' pmd entries carry ORPC so the hardware
    // knows to fetch the PC bitmask.
    EXPECT_TRUE(f.pmdEntry(f.procs[0], kVa).orpc());
    EXPECT_TRUE(f.pmdEntry(f.procs[1], kVa).orpc());
    EXPECT_FALSE(f.pmdEntry(f.procs[0], kVa).owned());
    // The writer's entry has O set and does not need ORPC.
    EXPECT_TRUE(f.pmdEntry(f.procs[2], kVa).owned());
}

TEST(Cow, SingleEntrySharedShootdown)
{
    Fixture f(2);
    f.kernel.handleFault(*f.procs[0], kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Read);
    f.invalidations.clear();
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Write);

    // Exactly one SharedRange invalidation of exactly one page (the
    // paper: the remaining 511 translations stay cached).
    unsigned shared_invs = 0;
    for (const auto &inv : f.invalidations) {
        if (inv.kind == TlbInvalidate::Kind::SharedRange) {
            ++shared_invs;
            EXPECT_EQ(inv.vpn, kVa >> 12);
            EXPECT_EQ(inv.num_pages, 1u);
            EXPECT_EQ(inv.ccid, f.ccid);
        }
    }
    EXPECT_EQ(shared_invs, 1u);
}

TEST(Cow, SecondWriteSameRegionIsPlainCow)
{
    Fixture f(2);
    f.kernel.handleFault(*f.procs[0], kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Write);
    const auto priv_before = f.kernel.cow_privatizations.value();

    // Another page in the same 2 MB region: already private, plain CoW.
    f.kernel.handleFault(*f.procs[1], kVa + 0x2000, AccessType::Read);
    EXPECT_EQ(f.kernel.handleFault(*f.procs[1], kVa + 0x2000,
                                   AccessType::Write).kind,
              FaultKind::Cow);
    EXPECT_EQ(f.kernel.cow_privatizations.value(), priv_before);
    MaskPage *mask = f.kernel.maskFor(f.ccid, kVa);
    EXPECT_EQ(mask->writerCount(), 1u);
}

TEST(Cow, WriteInOtherRegionReusesPidListSlot)
{
    Fixture f(2);
    const Addr other = kVa + k2M; // different 2 MB, same 1 GB mask region
    for (auto *p : f.procs) {
        f.kernel.handleFault(*p, kVa, AccessType::Read);
        f.kernel.handleFault(*p, other, AccessType::Read);
    }
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Write);
    f.kernel.handleFault(*f.procs[1], other, AccessType::Write);

    MaskPage *mask = f.kernel.maskFor(f.ccid, kVa);
    EXPECT_EQ(mask->writerCount(), 1u); // one pid_list slot
    EXPECT_EQ(mask->bitmaskFor(kVa), 1u);
    EXPECT_EQ(mask->bitmaskFor(other), 1u);
    EXPECT_EQ(f.kernel.cow_privatizations.value(), 2u); // per-region copy
}

TEST(Cow, DistinctWritersGetDistinctBits)
{
    Fixture f(3);
    for (auto *p : f.procs)
        f.kernel.handleFault(*p, kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Write);
    f.kernel.handleFault(*f.procs[2], kVa + 0x3000, AccessType::Write);

    MaskPage *mask = f.kernel.maskFor(f.ccid, kVa);
    EXPECT_EQ(mask->writerCount(), 2u);
    EXPECT_EQ(mask->bitFor(f.procs[1]->pid()), 0);
    EXPECT_EQ(mask->bitFor(f.procs[2]->pid()), 1);
    EXPECT_EQ(mask->bitmaskFor(kVa), 0b11u);
}

TEST(Cow, LastSharerPrivatizationFreesSharedTable)
{
    Fixture f(2);
    f.kernel.handleFault(*f.procs[0], kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Read);
    PageTablePage *shared = f.leafOf(f.procs[0], kVa);
    const Ppn shared_frame = shared->frame();

    f.kernel.handleFault(*f.procs[0], kVa, AccessType::Write);
    f.kernel.handleFault(*f.procs[1], kVa, AccessType::Write);

    // Both privatized: the shared table must have been freed.
    EXPECT_EQ(f.kernel.tableByFrame(shared_frame), nullptr);
    EXPECT_NE(f.leafOf(f.procs[0], kVa), f.leafOf(f.procs[1], kVa));
    EXPECT_NE(f.pte(f.procs[0], kVa).frame(),
              f.pte(f.procs[1], kVa).frame());
}

TEST(Cow, ThirtyThreeWritersRevertRegion)
{
    Fixture f(34);
    for (auto *p : f.procs)
        f.kernel.handleFault(*p, kVa, AccessType::Read);

    // 32 writers fit in the PC bitmask.
    for (unsigned i = 0; i < 32; ++i) {
        f.kernel.handleFault(*f.procs[i],
                             kVa + (i % 8) * 0x1000, AccessType::Write);
    }
    EXPECT_EQ(f.kernel.mask_fallbacks.value(), 0u);
    MaskPage *mask = f.kernel.maskFor(f.ccid, kVa);
    EXPECT_EQ(mask->writerCount(), 32u);

    // The 33rd writer overflows: the whole PMD table set reverts to
    // private translations (paper Fig. 12(b)).
    EXPECT_EQ(f.kernel.handleFault(*f.procs[32], kVa,
                                   AccessType::Write).kind,
              FaultKind::Cow);
    EXPECT_EQ(f.kernel.mask_fallbacks.value(), 1u);

    // Every process now has a private leaf table with owned entries.
    for (unsigned i = 0; i < 34; ++i) {
        PageTablePage *leaf = f.leafOf(f.procs[i], kVa);
        EXPECT_FALSE(leaf->group_shared) << "proc " << i;
        EXPECT_TRUE(f.pmdEntry(f.procs[i], kVa).owned()) << "proc " << i;
    }
    // And no two writers share a leaf table.
    EXPECT_NE(f.leafOf(f.procs[0], kVa), f.leafOf(f.procs[33], kVa));

    // New faults in the reverted region stay private.
    const auto installs = f.kernel.shared_installs.value();
    f.kernel.handleFault(*f.procs[33], kVa + 4 * k2M, AccessType::Read);
    f.kernel.handleFault(*f.procs[32], kVa + 4 * k2M, AccessType::Read);
    EXPECT_EQ(f.kernel.shared_installs.value(), installs);
}

TEST(Cow, RevertInvalidatesSharedRegionEntries)
{
    Fixture f(34);
    for (auto *p : f.procs)
        f.kernel.handleFault(*p, kVa, AccessType::Read);
    for (unsigned i = 0; i < 32; ++i)
        f.kernel.handleFault(*f.procs[i], kVa, AccessType::Write);
    f.invalidations.clear();
    f.kernel.handleFault(*f.procs[32], kVa, AccessType::Write);

    bool saw_region_inv = false;
    for (const auto &inv : f.invalidations) {
        if (inv.kind == TlbInvalidate::Kind::SharedRange &&
            inv.num_pages == 512)
            saw_region_inv = true;
    }
    EXPECT_TRUE(saw_region_inv);
}

TEST(Cow, WriteFirstTouchInSharedTableKeepsItClean)
{
    // P0 creates the shared table; P1's FIRST access to a page is a
    // write. The shared table must keep the clean translation.
    Fixture f(2);
    f.kernel.handleFault(*f.procs[0], kVa, AccessType::Read);
    f.kernel.handleFault(*f.procs[1], kVa + 0x7000, AccessType::Write);

    PageTablePage *shared = f.leafOf(f.procs[0], kVa);
    ASSERT_TRUE(shared->group_shared);
    const Entry clean = shared->entryFor(kVa + 0x7000);
    EXPECT_TRUE(clean.present());
    EXPECT_TRUE(clean.cow());
    bool dummy = false;
    EXPECT_EQ(clean.frame(),
              f.file->frameFor(7, f.kernel.frames(), dummy));
    // The writer's view is private and writable.
    EXPECT_TRUE(f.pte(f.procs[1], kVa + 0x7000).writable());
    EXPECT_NE(f.pte(f.procs[1], kVa + 0x7000).frame(), clean.frame());
}
