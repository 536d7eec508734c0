/**
 * @file
 * Address Space Layout Randomization support (paper §IV-D).
 *
 * Two configurations:
 *  - ASLR-SW: one seed per CCID group; every process in the group gets the
 *    same segment layout, so translations are directly shareable. Minimal
 *    OS change, no hardware.
 *  - ASLR-HW: one seed per process. Each process stores, per segment, the
 *    difference between the CCID group's offsets and its own
 *    (diff_i_offset[] = CCID_offset[] - i_offset[]). A logic module with
 *    comparators and one adder sits between the L1 and L2 TLB: on an L1
 *    miss it classifies the VA into a segment and adds the diff, yielding
 *    the group-canonical VA used by the L2 TLB and the page walk. The
 *    transform costs 2 cycles, and the L1 TLB does not share entries.
 *
 * The AslrTransform class implements the logic module faithfully
 * (segment classification + adder) over the 7 Linux segments.
 */

#ifndef BF_VM_ASLR_HH
#define BF_VM_ASLR_HH

#include <array>
#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"

namespace bf::vm
{

/** Which ASLR configuration the system runs. */
enum class AslrMode : std::uint8_t
{
    Off, //!< No randomization (debug).
    Sw,  //!< Per-CCID seed; shared layouts.
    Hw,  //!< Per-process seed + hardware diff-offset module (default).
};

/** The 7 Linux process segments the paper randomizes. */
enum class Segment : std::uint8_t
{
    Code,
    Data,
    Heap,
    Stack,
    Mmap,  //!< mmap area: libraries and file mappings.
    Vdso,
    Shm,
};

/** Number of segments. */
inline constexpr unsigned numSegments = 7;

/** Canonical (un-randomized) base address of each segment. */
Addr segmentBase(Segment seg);

/** Size of each segment's reservation. */
std::uint64_t segmentSpan(Segment seg);

/** Segment that canonically contains @p va. */
Segment segmentOf(Addr va);

/** A set of per-segment randomized offsets. */
struct AslrOffsets
{
    std::array<std::int64_t, numSegments> offset{};

    /**
     * Draw page-aligned offsets from a seed. Offsets stay within a
     * quarter of the segment span so mappings never escape their segment.
     */
    static AslrOffsets randomize(std::uint64_t seed);
};

/**
 * The ASLR-HW logic module: comparators that classify a VA into a segment
 * plus one adder that applies diff_i_offset[segment].
 */
class AslrTransform
{
  public:
    /** Latency of the module, applied on every L1 TLB miss (Table I). */
    static constexpr Cycles transformCycles = 2;

    AslrTransform() = default;

    /**
     * @param group_offsets the CCID group's offsets.
     * @param process_offsets this process's private offsets.
     */
    AslrTransform(const AslrOffsets &group_offsets,
                  const AslrOffsets &process_offsets)
    {
        for (unsigned s = 0; s < numSegments; ++s) {
            diff_.offset[s] =
                group_offsets.offset[s] - process_offsets.offset[s];
        }
    }

    /** Process VA -> group-canonical VA (used below the L1 TLB). */
    Addr
    toShared(Addr process_va) const
    {
        const auto seg = static_cast<unsigned>(segmentOf(process_va));
        return static_cast<Addr>(static_cast<std::int64_t>(process_va) +
                                 diff_.offset[seg]);
    }

    /** Group-canonical VA -> process VA (inverse, for fault reporting). */
    Addr
    toProcess(Addr shared_va) const
    {
        const auto seg = static_cast<unsigned>(segmentOf(shared_va));
        return static_cast<Addr>(static_cast<std::int64_t>(shared_va) -
                                 diff_.offset[seg]);
    }

    /** Checkpoint layout: the stored per-segment differences. */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        for (auto &diff : self.diff_.offset)
            ar.i64(diff);
    }

  private:
    AslrOffsets diff_{};
};

} // namespace bf::vm

#endif // BF_VM_ASLR_HH
