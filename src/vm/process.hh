/**
 * @file
 * The process abstraction: address space root, VMAs, identifiers.
 *
 * Containers use the process abstraction for isolation (paper §II-A); one
 * container is modeled as one process, as Docker best practice prescribes.
 */

#ifndef BF_VM_PROCESS_HH
#define BF_VM_PROCESS_HH

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "vm/aslr.hh"
#include "vm/vma.hh"

namespace bf::vm
{

class PageTablePage;

/** One simulated process / container instance. */
class Process
{
  public:
    Process(Pid pid, Pcid pcid, Ccid ccid, std::string name,
            PageTablePage *pgd)
        : pid_(pid), pcid_(pcid), ccid_(ccid), name_(std::move(name)),
          pgd_(pgd)
    {}

    Pid pid() const { return pid_; }
    Pcid pcid() const { return pcid_; }
    Ccid ccid() const { return ccid_; }
    const std::string &name() const { return name_; }
    PageTablePage *pgd() const { return pgd_; }
    bool alive() const { return alive_; }
    void markDead() { alive_ = false; }

    /**
     * @{
     * @name Attribution (common/attrib)
     * Dense tenant slot in the attrib::Registry, -1 when no registry is
     * attached (a standalone kernel without a System). Cached here so the
     * translate hot path books per-tenant counters without a map
     * lookup.
     */
    int attribSlot() const { return attrib_slot_; }
    void setAttribSlot(int slot) { attrib_slot_ = slot; }
    /** @} */

    /** VMA containing a canonical VA, or nullptr. */
    Vma *
    findVma(Addr va)
    {
        for (auto &vma : vmas_) {
            if (vma.contains(va))
                return &vma;
        }
        return nullptr;
    }

    const Vma *
    findVma(Addr va) const
    {
        return const_cast<Process *>(this)->findVma(va);
    }

    /** Append a mapping; ranges must not overlap. */
    void
    addVma(const Vma &vma)
    {
        for (const auto &existing : vmas_) {
            bf_assert(vma.end <= existing.start ||
                          vma.start >= existing.end,
                      "overlapping mmap at ", vma.start, " in ", name_);
        }
        vmas_.push_back(vma);
    }

    std::vector<Vma> &vmas() { return vmas_; }
    const std::vector<Vma> &vmas() const { return vmas_; }

    /** Remove the VMA starting at @p start; false if absent. */
    bool
    removeVma(Addr start)
    {
        for (auto it = vmas_.begin(); it != vmas_.end(); ++it) {
            if (it->start == start) {
                vmas_.erase(it);
                return true;
            }
        }
        return false;
    }

    /**
     * @{
     * @name BabelFish PC-bitmask bit assignment
     * Bit index this process owns in the MaskPage covering a region
     * (assigned at the first CoW there), keyed by mask-region base VA.
     *
     * Kept as a flat sorted vector: the set is tiny (one entry per
     * 1 GB region the process CoW'ed in) and bitIn() sits on the MMU's
     * translate path, where a binary search over contiguous storage
     * beats chasing std::map nodes. hasMaskBits() lets callers skip
     * the search entirely for the common process that never CoW'ed.
     */
    bool hasMaskBits() const { return !mask_bits_.empty(); }

    int
    bitIn(Addr mask_region) const
    {
        const auto it = std::lower_bound(
            mask_bits_.begin(), mask_bits_.end(), mask_region,
            [](const std::pair<Addr, int> &e, Addr key) {
                return e.first < key;
            });
        return it != mask_bits_.end() && it->first == mask_region
                   ? it->second
                   : -1;
    }

    void
    setBitIn(Addr mask_region, int bit)
    {
        const auto it = std::lower_bound(
            mask_bits_.begin(), mask_bits_.end(), mask_region,
            [](const std::pair<Addr, int> &e, Addr key) {
                return e.first < key;
            });
        if (it != mask_bits_.end() && it->first == mask_region)
            it->second = bit;
        else
            mask_bits_.insert(it, { mask_region, bit });
    }
    /** @} */

    /** @{ @name ASLR state */
    AslrOffsets aslr_offsets{};
    AslrTransform aslr_transform{};
    /** @} */

  private:
    /** Kernel::io describes the process's checkpoint layout. */
    friend class Kernel;

    Pid pid_;
    Pcid pcid_;
    Ccid ccid_;
    std::string name_;
    PageTablePage *pgd_;
    int attrib_slot_ = -1;
    bool alive_ = true;
    std::vector<Vma> vmas_;
    std::vector<std::pair<Addr, int>> mask_bits_; //!< Sorted by region.
};

} // namespace bf::vm

#endif // BF_VM_PROCESS_HH
