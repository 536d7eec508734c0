/**
 * @file
 * The interface between workload generators and the timing cores.
 *
 * A Thread produces the memory-reference stream of one container process.
 * The core pulls references, charges their translation and memory
 * latency, and notifies the thread of completion times so request
 * latencies (Data Serving) and run times (Functions) can be measured.
 */

#ifndef BF_CORE_THREAD_HH
#define BF_CORE_THREAD_HH

#include <string>

#include "common/types.hh"

namespace bf::vm
{
class Process;
} // namespace bf::vm

namespace bf::snap
{
class ArchiveWriter;
class ArchiveReader;
} // namespace bf::snap

namespace bf::core
{

/** One memory reference of a thread's execution. */
struct MemRef
{
    Addr va = 0;                      //!< Canonical virtual address.
    AccessType type = AccessType::Read;
    std::uint32_t instrs = 1;         //!< Instructions retired with it.
    bool request_end = false;         //!< Marks a request boundary.
    /**
     * The thread blocks after this reference (e.g.\ waiting on network
     * I/O between request batches); the scheduler switches to the next
     * runnable container immediately instead of waiting out the
     * quantum. Server processes switch at sub-quantum granularity,
     * which is what keeps co-located containers' working sets competing
     * in the TLBs continuously.
     */
    bool yield_after = false;

    /** Checkpoint layout (common/snapshot.hh). */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.u64(self.va);
        ar.u8(self.type);
        ar.u32(self.instrs);
        ar.b(self.request_end);
        ar.b(self.yield_after);
    }
};

/** A schedulable container process. */
class Thread
{
  public:
    virtual ~Thread() = default;

    /** The process whose address space the references live in. */
    virtual vm::Process *process() = 0;

    /**
     * Produce the next reference.
     * @return false when the thread has run to completion (functions).
     */
    virtual bool next(MemRef &ref) = 0;

    /** One next() into @p out[0] (0 = done); perfbench calls it. */
    virtual unsigned
    nextBatch(MemRef *out, unsigned max)
    {
        (void)max;
        return next(out[0]) ? 1u : 0u;
    }

    /** Called after a reference completes, with the core's cycle. */
    virtual void completed(const MemRef &ref, Cycles now) { (void)ref;
                                                            (void)now; }

    /**
     * Whether the thread has exited. Must be monotone: once it returns
     * true it must keep returning true (the scheduler never runs the
     * thread again), and transitions happen only inside next() or
     * completed().
     */
    virtual bool finished() const { return false; }

    /** Debug name. */
    virtual const std::string &name() const = 0;

    /**
     * @{
     * @name Checkpointing
     * Serialize / overwrite the generator's progress (RNG state,
     * cursors, phase). The default is stateless; every workload thread
     * with mutable state overrides both, and restoreState may throw
     * snap::SnapshotError on divergence from the rebuilt thread.
     */
    virtual void saveState(snap::ArchiveWriter &ar) const { (void)ar; }
    virtual void restoreState(snap::ArchiveReader &ar) { (void)ar; }
    /** @} */
};

} // namespace bf::core

#endif // BF_CORE_THREAD_HH
