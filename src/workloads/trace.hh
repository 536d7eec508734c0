/**
 * @file
 * Trace replay: drive a core with a recorded memory-reference stream
 * instead of a synthetic generator. This is the adoption path for
 * downstream users who have their own application traces (e.g.\ from a
 * binary-instrumentation tool): map the address space, parse the trace,
 * and hand a TraceThread per container to the System.
 *
 * Text format, one reference per line, '#' comments:
 *
 *     <R|W|I> <hex or decimal va> [instrs]
 *
 * e.g. `R 0x7f0000001000 200`. Addresses are canonical (group) VAs.
 */

#ifndef BF_WORKLOADS_TRACE_HH
#define BF_WORKLOADS_TRACE_HH

#include <istream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "core/thread.hh"

namespace bf::workloads
{

/** Parse a text trace into memory references. */
std::vector<core::MemRef> parseTrace(std::istream &input);

/** A thread that replays a fixed reference stream. */
class TraceThread : public core::Thread
{
  public:
    /**
     * @param trace the references to replay.
     * @param loops how many times to replay the trace (0 = forever).
     */
    TraceThread(std::string name, vm::Process *proc,
                std::vector<core::MemRef> trace, std::uint64_t loops = 1)
        : name_(std::move(name)), proc_(proc), trace_(std::move(trace)),
          loops_(loops)
    {}

    vm::Process *process() override { return proc_; }
    const std::string &name() const override { return name_; }

    bool
    next(core::MemRef &ref) override
    {
        if (finished() || trace_.empty())
            return false;
        ref = trace_[pos_];
        if (++pos_ == trace_.size()) {
            pos_ = 0;
            ++done_loops_;
        }
        return true;
    }

    bool
    finished() const override
    {
        return trace_.empty() || (loops_ != 0 && done_loops_ >= loops_);
    }

    /** References replayed so far. */
    std::uint64_t
    replayed() const
    {
        return done_loops_ * trace_.size() + pos_;
    }

    /**
     * The trace itself is config (rebuilt); only the cursor is state.
     * The manifest does not cover the trace's contents, so restore
     * checks the cursor against the rebuilt trace.
     */
    void saveState(snap::ArchiveWriter &ar) const override { io(ar, *this); }

    void
    restoreState(snap::ArchiveReader &ar) override
    {
        io(ar, *this);
        if (pos_ != 0 && pos_ >= trace_.size())
            throw snap::SnapshotError("trace cursor past the end of trace");
    }

  private:
    std::string name_;
    vm::Process *proc_;
    std::vector<core::MemRef> trace_;
    std::uint64_t loops_;
    std::size_t pos_ = 0;
    std::uint64_t done_loops_ = 0;

    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.u64(self.pos_);
        ar.u64(self.done_loops_);
    }
};

} // namespace bf::workloads

#endif // BF_WORKLOADS_TRACE_HH
