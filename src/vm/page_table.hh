/**
 * @file
 * Page-table pages.
 *
 * Each table page is backed by a real simulated physical frame, so a page
 * walk can issue cache-hierarchy requests with the true physical address
 * of every entry it reads. Sharing a table page between processes (the
 * BabelFish page-table fusion) therefore automatically produces the cache
 * reuse the paper describes: two walks that read the same pte_t touch the
 * same physical cache line.
 */

#ifndef BF_VM_PAGE_TABLE_HH
#define BF_VM_PAGE_TABLE_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "vm/paging.hh"

namespace bf::vm
{

/** One 4 KB page of 512 page-table entries at some level. */
class PageTablePage
{
  public:
    /**
     * @param level table level (LevelPte..LevelPgd).
     * @param frame physical frame backing this page.
     */
    PageTablePage(int level, Ppn frame) : level_(level), frame_(frame) {}

    int level() const { return level_; }
    Ppn frame() const { return frame_; }

    Entry &entry(unsigned idx) { return entries_[idx]; }
    const Entry &entry(unsigned idx) const { return entries_[idx]; }

    /** Entry for a virtual address at this table's level. */
    Entry &entryFor(Addr va) { return entries_[tableIndex(va, level_)]; }
    const Entry &
    entryFor(Addr va) const
    {
        return entries_[tableIndex(va, level_)];
    }

    /** Physical byte address of entry idx (what the walker fetches). */
    Addr
    entryPaddr(unsigned idx) const
    {
        return frame_ * basePageBytes + idx * bytesPerEntry;
    }

    /** Physical byte address of the entry covering va. */
    Addr
    entryPaddrFor(Addr va) const
    {
        return entryPaddr(tableIndex(va, level_));
    }

    /**
     * @{
     * @name BabelFish sharing bookkeeping
     * The paper attaches a 16-bit counter to each table at the sharing
     * level; when the last sharer unmaps, the table is freed.
     */
    std::uint16_t sharers = 1;
    bool group_shared = false; //!< Registered in a CCID sharing registry.
    /** @} */

  private:
    int level_;
    Ppn frame_;
    std::array<Entry, entriesPerTable> entries_{};
};

} // namespace bf::vm

#endif // BF_VM_PAGE_TABLE_HH
