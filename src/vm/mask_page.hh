/**
 * @file
 * The BabelFish MaskPage (paper Appendix, Figs. 12 and 13).
 *
 * One MaskPage is associated with each "PMD table set" of a CCID group:
 * the per-process PMD tables that map the same 1 GB canonical region. It
 * holds 512 PrivateCopy bitmasks — one per pmd_t entry, i.e. one per 2 MB
 * region — and a single ordered pid_list of up to 32 processes that have
 * performed a CoW anywhere in the region. The position of a pid in the
 * list is the bit that process owns in every PC bitmask of the page.
 *
 * The MaskPage is backed by a physical frame: on a TLB miss with ORPC set
 * the hardware fetches the PC bitmask through the cache hierarchy in
 * parallel with the pte_t (paper: the 12-cycle L2 TLB access time).
 */

#ifndef BF_VM_MASK_PAGE_HH
#define BF_VM_MASK_PAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "vm/paging.hh"

namespace bf::vm
{

/** PC bitmasks and pid_list for one PMD table set of a CCID group. */
class MaskPage
{
  public:
    /** Maximum distinct CoW-writing processes per PMD table set. */
    static constexpr unsigned maxWriters = 32;

    /**
     * @param frame physical frame backing this MaskPage.
     * @param region_base first canonical VA of the 1 GB region covered.
     */
    MaskPage(Ppn frame, Addr region_base)
        : frame_(frame), region_base_(region_base)
    {}

    Ppn frame() const { return frame_; }
    Addr regionBase() const { return region_base_; }

    /** Bit index owned by pid, or -1 if pid is not in the pid_list. */
    int
    bitFor(Pid pid) const
    {
        for (unsigned i = 0; i < pid_list_.size(); ++i) {
            if (pid_list_[i] == pid)
                return static_cast<int>(i);
        }
        return -1;
    }

    /**
     * Add a process to the pid_list (its first CoW in this PMD table set).
     * @return the bit index assigned, or -1 when the 32 slots are full
     *         (the caller must then revert the whole set to private
     *         translations, paper Fig. 12(b)).
     */
    int
    addWriter(Pid pid)
    {
        bf_assert(bitFor(pid) < 0, "pid ", pid, " already in pid_list");
        if (pid_list_.size() >= maxWriters)
            return -1;
        pid_list_.push_back(pid);
        return static_cast<int>(pid_list_.size() - 1);
    }

    /** PC bitmask of pmd_t entry @p pmd_index (one per 2 MB region). */
    std::uint32_t
    bitmask(unsigned pmd_index) const
    {
        return bitmasks_[pmd_index];
    }

    /** PC bitmask covering canonical address @p va. */
    std::uint32_t
    bitmaskFor(Addr va) const
    {
        return bitmasks_[tableIndex(va, LevelPmd)];
    }

    /** Set bit @p bit in the bitmask of pmd_t entry @p pmd_index. */
    void
    setBit(unsigned pmd_index, unsigned bit)
    {
        bf_assert(bit < maxWriters, "PC bit out of range");
        bitmasks_[pmd_index] |= (1u << bit);
    }

    /** OR of all bits of the bitmask for a pmd_t entry. */
    bool
    orpc(unsigned pmd_index) const
    {
        return bitmasks_[pmd_index] != 0;
    }

    /** Number of processes in the pid_list. */
    unsigned writerCount() const
    {
        return static_cast<unsigned>(pid_list_.size());
    }

    /** Physical address the hardware reads the bitmask from. */
    Addr
    bitmaskPaddr(unsigned pmd_index) const
    {
        return frame_ * basePageBytes + pmd_index * sizeof(std::uint32_t);
    }

    /**
     * Checkpoint layout (Kernel only): the bitmasks and the pid list;
     * the frame and region are the Kernel's to rebuild the page from.
     */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        for (auto &bits : self.bitmasks_)
            ar.u32(bits);
        ar.count32(self.pid_list_);
        for (auto &writer : self.pid_list_)
            ar.u32(writer);
    }

  private:
    Ppn frame_;
    Addr region_base_;
    std::array<std::uint32_t, entriesPerTable> bitmasks_{};
    std::vector<Pid> pid_list_;
};

} // namespace bf::vm

#endif // BF_VM_MASK_PAGE_HH
