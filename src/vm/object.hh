/**
 * @file
 * Backing objects for virtual memory areas.
 *
 * A MappedObject models either a file in the page cache (container image
 * layers, shared libraries, mmap'ed data sets) or an anonymous region
 * whose identity survives fork (so parent and child CoW-share its frames).
 * Frames are populated lazily, exactly once: every mapping of the same
 * object page resolves to the same physical frame, which is what makes
 * translations replicate across containers in the baseline.
 */

#ifndef BF_VM_OBJECT_HH
#define BF_VM_OBJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "vm/frame_allocator.hh"

namespace bf::vm
{

/** A lazily materialized page-cache object (file or anonymous). */
class MappedObject
{
  public:
    /**
     * @param id unique object id.
     * @param name debug name ("libc.so", "dataset", ...).
     * @param bytes object size.
     * @param is_file file-backed (major fault on first touch) vs anonymous.
     */
    MappedObject(std::uint64_t id, std::string name, std::uint64_t bytes,
                 bool is_file)
        : id_(id), name_(std::move(name)), bytes_(bytes), is_file_(is_file),
          frames_((bytes + basePageBytes - 1) / basePageBytes, 0)
    {}

    std::uint64_t id() const { return id_; }
    const std::string &name() const { return name_; }
    std::uint64_t bytes() const { return bytes_; }
    bool isFile() const { return is_file_; }

    /**
     * @{
     * @name Mapper accounting
     * How many VMAs (across processes) map this object. A private anon
     * object with a single mapper cannot produce shareable translations,
     * so the kernel keeps its tables out of the sharing registry.
     */
    void addMapper() { ++mappers_; }
    void removeMapper() { if (mappers_) --mappers_; }
    unsigned mappers() const { return mappers_; }
    /** @} */

    /** Number of 4 KB pages in the object. */
    std::uint64_t numPages() const { return frames_.size(); }

    /** Whether page @p index is already resident in the page cache. */
    bool
    resident(std::uint64_t index) const
    {
        return frames_[index] != 0;
    }

    /**
     * Frame of page @p index, faulting it in if needed.
     * @param[out] was_major set true when the page had to be "read from
     *             disk" (first touch of a file page).
     */
    Ppn
    frameFor(std::uint64_t index, FrameAllocator &allocator, bool &was_major)
    {
        was_major = false;
        if (frames_[index] == 0) {
            frames_[index] = allocator.allocate();
            was_major = is_file_ && !preloaded_;
        }
        return frames_[index];
    }

    /**
     * Frame of the first page of huge chunk @p chunk of
     * @p pages_per_chunk 4 KB pages (512 for 2 MB pages, 512*512 for
     * 1 GB pages), materializing the whole chunk as physically
     * contiguous frames.
     * @param[out] was_major true when a file chunk was "read from disk".
     */
    Ppn
    chunkFrameFor(std::uint64_t chunk, std::uint64_t pages_per_chunk,
                  FrameAllocator &allocator, bool &was_major)
    {
        const std::uint64_t first = chunk * pages_per_chunk;
        was_major = false;
        if (frames_[first] == 0) {
            const Ppn base = allocator.allocateContiguous(pages_per_chunk);
            for (std::uint64_t i = 0;
                 i < pages_per_chunk && first + i < frames_.size(); ++i) {
                frames_[first + i] = base + i;
            }
            was_major = is_file_ && !preloaded_;
        }
        return frames_[first];
    }

    /** 2 MB chunk convenience wrapper. */
    Ppn
    hugeFrameFor(std::uint64_t chunk, FrameAllocator &allocator,
                 bool &was_major)
    {
        return chunkFrameFor(chunk, 512, allocator, was_major);
    }

    /**
     * Materialize every page now (warm page cache). Bring-up experiments
     * call this for image layers that a previous container already pulled.
     */
    void
    preload(FrameAllocator &allocator)
    {
        for (auto &frame : frames_) {
            if (frame == 0)
                frame = allocator.allocate();
        }
        preloaded_ = true;
    }

    /** Mark all future first-touches as minor faults (page cache warm). */
    void markResident() { preloaded_ = true; }

    /**
     * Checkpoint layout (Kernel only): the mutable state. Id, size, kind
     * and the frame-vector length are immutable, so restore only checks
     * them against the rebuilt object.
     */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.expect(self.id_, "kernel checkpoint mismatch: object id");
        ar.expect(self.bytes_, "kernel checkpoint mismatch: object size");
        ar.expect(self.is_file_, "kernel checkpoint mismatch: object kind");
        ar.b(self.preloaded_);
        ar.u32(self.mappers_);
        ar.expect(static_cast<std::uint64_t>(self.frames_.size()),
                  "kernel checkpoint mismatch: object frame count");
        for (auto &frame : self.frames_)
            ar.u64(frame);
    }

  private:
    std::uint64_t id_;
    std::string name_;
    std::uint64_t bytes_;
    bool is_file_;
    bool preloaded_ = false;
    unsigned mappers_ = 0;
    std::vector<Ppn> frames_;
};

} // namespace bf::vm

#endif // BF_VM_OBJECT_HH
