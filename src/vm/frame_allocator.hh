/**
 * @file
 * Physical frame allocator for the simulated 32 GB of main memory.
 *
 * Frames are handed out by a bump pointer with a free list for reuse.
 * Frame 0 is reserved so that Ppn 0 can serve as a null value.
 */

#ifndef BF_VM_FRAME_ALLOCATOR_HH
#define BF_VM_FRAME_ALLOCATOR_HH

#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace bf::vm
{

/** Allocates and frees 4 KB physical frames. */
class FrameAllocator
{
  public:
    /**
     * @param total_frames capacity in 4 KB frames (default 32 GB).
     * @param parent stat group to register under, may be null.
     */
    explicit FrameAllocator(std::uint64_t total_frames = (32ull << 30) /
                                                          basePageBytes,
                            stats::StatGroup *parent = nullptr)
        : total_frames_(total_frames), stat_group_("frames", parent)
    {
        stat_group_.addStat("allocated", &allocated);
        stat_group_.addStat("freed", &freed);
    }

    /** Allocate one frame. */
    Ppn
    allocate()
    {
        ++allocated;
        if (!free_list_.empty()) {
            const Ppn ppn = free_list_.back();
            free_list_.pop_back();
            return ppn;
        }
        if (next_ >= total_frames_)
            bf_fatal("out of physical memory: ", total_frames_, " frames");
        return next_++;
    }

    /**
     * Allocate @p count physically contiguous frames (huge pages).
     * Contiguity comes from the bump pointer; the free list is not
     * defragmented, matching the simple buddy-free behaviour we need.
     */
    Ppn
    allocateContiguous(std::uint64_t count)
    {
        allocated += count;
        if (next_ + count > total_frames_)
            bf_fatal("out of physical memory for contiguous alloc");
        const Ppn base = next_;
        next_ += count;
        return base;
    }

    /** Return one frame to the allocator. */
    void
    free(Ppn ppn)
    {
        ++freed;
        free_list_.push_back(ppn);
    }

    /** Frames currently live. */
    std::uint64_t
    inUse() const
    {
        return allocated.value() - freed.value();
    }


    /** Checkpoint layout (Kernel only; stats ride the stats tree). */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.u64(self.next_);
        ar.count64(self.free_list_);
        for (auto &ppn : self.free_list_)
            ar.u64(ppn);
    }

    /** @{ @name Statistics */
    stats::Scalar allocated;
    stats::Scalar freed;
    /** @} */

  private:
    std::uint64_t total_frames_;
    Ppn next_ = 1; //!< Frame 0 reserved as null.
    std::vector<Ppn> free_list_;
    stats::StatGroup stat_group_;
};

} // namespace bf::vm

#endif // BF_VM_FRAME_ALLOCATOR_HH
