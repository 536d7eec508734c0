#include "core/core.hh"

#include "common/attrib/attrib.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::core
{

Core::Core(unsigned id, const CoreParams &params, const MmuParams &mmu,
           mem::CacheHierarchy &hierarchy, vm::Kernel &kernel,
           stats::StatGroup *parent)
    : id_(id), params_(params), hierarchy_(hierarchy),
      stat_group_("core" + std::to_string(id), parent)
{
    mmu_ = std::make_unique<Mmu>(id, mmu, hierarchy, kernel, &stat_group_);
    quantum_left_ = params_.quantum;

    stat_group_.addStat("instructions", &instructions);
    stat_group_.addStat("mem_refs", &mem_refs);
    stat_group_.addStat("busy_cycles", &busy_cycles);
    stat_group_.addStat("translation_cycles", &translation_cycles);
    stat_group_.addStat("data_cycles", &data_cycles);
    stat_group_.addStat("context_switches", &context_switches);
}

void
Core::addThread(Thread *thread)
{
    threads_.push_back(thread);
}

void
Core::clearThreads()
{
    threads_.clear();
    current_ = 0;
}

bool
Core::busy() const
{
    if (has_pending_)
        return true; // a stalled reference still has to complete
    for (const Thread *thread : threads_) {
        if (!thread->finished())
            return true;
    }
    return false;
}

void
Core::syncTo(Cycles target)
{
    if (now_ < target)
        now_ = target;
}

bool
Core::scheduleNext()
{
    const std::size_t start = current_;
    std::size_t candidate = current_;
    for (std::size_t i = 0; i < threads_.size(); ++i) {
        candidate = (start + 1 + i) % threads_.size();
        if (!threads_[candidate]->finished()) {
            if (candidate != current_) {
                // CR3 write; with PCID/CCID tags the TLB is not flushed.
                now_ += params_.context_switch_cycles;
                ++context_switches;
            }
            current_ = candidate;
            quantum_left_ = params_.quantum;
            return true;
        }
    }
    return false;
}

void
Core::runUntil(Cycles until)
{
    if (threads_.empty()) {
        now_ = until;
        return;
    }

    while (now_ < until) {
        if (blocked_)
            return; // suspended on a deferred fault; System resumes us

        Thread *thread = threads_[current_];
        MemRef ref;
        Cycles base = 0;

        if (has_pending_) {
            // Re-issue the reference that stalled on a deferred fault.
            // Its base pipeline time was charged when it first issued.
            ref = pending_ref_;
        } else {
            // A finished thread, an expired quantum, or a thread that
            // runs to completion on this pull hands the core on.
            if (thread->finished() || quantum_left_ == 0 ||
                !thread->next(ref)) {
                if (!scheduleNext()) {
                    now_ = until; // everyone finished: idle to barrier
                    return;
                }
                continue;
            }

            // Base pipeline time for the instructions retired with this
            // ref.
            cpi_accum_ += params_.base_cpi * ref.instrs;
            base = static_cast<Cycles>(cpi_accum_);
            cpi_accum_ -= static_cast<double>(base);
        }

        vm::Process *proc = thread->process();
        bf_assert(proc, "thread without process");

        // Close the attribution window when the scheduler put a
        // different container on the core: everything the global
        // counters gained since the last flush belongs to the previous
        // tenant. The common case is one predicted compare.
        if (proc->attribSlot() != attrib_slot_) {
            flushAttribWindow();
            attrib_slot_ = proc->attribSlot();
        }

        // Stamp the issuing tenant so every event this reference defers
        // to the epoch log carries its slot (weave DRAM-excess billing).
        if (epoch_log_)
            epoch_log_->setSlot(proc->attribSlot());

        const Translation tr =
            mmu_->translate(*proc, ref.va, ref.type, now_ + base);

        if (tr.blocked) {
            // Deferred fault: charge the probe time spent so far and
            // suspend until System services the fault.
            const Cycles spent = base + tr.cycles;
            now_ += spent;
            busy_cycles += spent;
            translation_cycles += tr.cycles;
            quantum_left_ -= std::min<Cycles>(quantum_left_, spent);
            pending_ref_ = ref;
            has_pending_ = true;
            blocked_ = true;
            bf_assert(++pending_retries_ < 64,
                      "deferred fault did not converge at va=", ref.va);
            return;
        }
        has_pending_ = false;
        pending_retries_ = 0;

        // The access issues once the pipeline and translation time have
        // elapsed — the timestamp orders this core's events against the
        // other cores' in the weave (and against DRAM bank state).
        //
        // Epoch-log invariant the canonical merge exploits (asserted in
        // mergeEpochLogs): a core's logged timestamps never decrease in
        // append order. Within one reference the walker's events carry
        // now_ + base + (partial walk cycles) and precede this data
        // access at now_ + base + tr.cycles; across references now_
        // advances below by at least every offset that was stamped. So
        // each per-core log is already sorted by (ts, seq) and the
        // k-way ladder needs no comparison sort.
        const auto mem = hierarchy_.access(id_, tr.paddr, ref.type,
                                           now_ + base + tr.cycles);

        const Cycles spent = base + tr.cycles + mem.latency;
        now_ += spent;
        busy_cycles += spent;
        translation_cycles += tr.cycles;
        data_cycles += mem.latency;
        instructions += ref.instrs;
        ++mem_refs;
        quantum_left_ -= std::min<Cycles>(quantum_left_, spent);

        thread->completed(ref, now_);

        if (ref.yield_after) {
            // Blocking I/O: yield the core to the next container.
            if (!scheduleNext()) {
                now_ = until;
                return;
            }
        }
    }
}

void
Core::resolveFault(Cycles fault_cycles)
{
    bf_assert(blocked_, "resolveFault on a core that is not blocked");
    now_ += fault_cycles;
    busy_cycles += fault_cycles;
    translation_cycles += fault_cycles;
    quantum_left_ -= std::min<Cycles>(quantum_left_, fault_cycles);
    blocked_ = false;
}

void
Core::applyWeaveAdjustment(Cycles data_extra, Cycles walk_extra)
{
    const Cycles total = data_extra + walk_extra;
    now_ += total;
    busy_cycles += total;
    data_cycles += data_extra;
    translation_cycles += walk_extra;
    if (walk_extra)
        mmu_->walker().walk_cycles += walk_extra;
}

void
Core::readAttribCounters(std::uint64_t out[attrib::kNumCounters]) const
{
    // The leading lanes are TranslateStats' scalars in table order.
    unsigned lane = 0;
    translate::forEachScalarStat(
        static_cast<const translate::TranslateStats &>(*mmu_),
        [&](const char *, const stats::Scalar &stat) {
            out[lane++] = stat.value();
        });
    out[attrib::kWalks] = mmu_->walker().walks.value();
    out[attrib::kInstructions] = instructions.value();
}

void
Core::flushAttribWindow()
{
    std::uint64_t cur[attrib::kNumCounters];
    readAttribCounters(cur);
    for (unsigned c = 0; c < attrib::kNumCounters; ++c) {
        // Counters are monotone between flushes; the delta since the
        // base snapshot is exactly what the current tenant's events
        // booked into the globals.
        const std::uint64_t delta = cur[c] - attrib_base_[c];
        if (delta)
            sink_->add(attrib_slot_, static_cast<attrib::Counter>(c),
                       delta);
        attrib_base_[c] = cur[c];
    }
    const stats::Distribution &lat = mmu_->miss_latency;
    if (lat.count() != attrib_lat_base_.count()) {
        sink_->mergeMissLatencyWindow(attrib_slot_, lat,
                                      attrib_lat_base_);
        attrib_lat_base_ = lat;
    }
}

void
Core::syncAttribWindow()
{
    readAttribCounters(attrib_base_);
    attrib_lat_base_ = mmu_->miss_latency;
    attrib_slot_ = -1; // the next reference re-stamps it
}

void
Core::resetStats()
{
    stat_group_.resetTree();
    // The globals just moved underneath the attribution window; re-base
    // so the next flush books only post-reset deltas (the Registry's
    // own resetCoreStats resets the tenant side to match).
    syncAttribWindow();
}

template <class Ar, class Self>
void
Core::io(Ar &ar, Self &self)
{
    ar.u64(self.now_);
    ar.u64(self.quantum_left_);
    ar.f64(self.cpi_accum_);
    ar.u64(self.current_);
    ar.expect(static_cast<std::uint32_t>(self.threads_.size()),
              "core checkpoint thread-count mismatch");
    ar.b(self.has_pending_);
    MemRef::io(ar, self.pending_ref_);
    ar.u32(self.pending_retries_);
    ar.part(*self.mmu_);
}

void
Core::save(snap::ArchiveWriter &ar) const
{
    bf_assert(!blocked_,
              "checkpoint mid-fault: core ", id_, " is suspended");
    io(ar, *this);
}

void
Core::restore(snap::ArchiveReader &ar)
{
    io(ar, *this);
    if (current_ != 0 && current_ >= threads_.size())
        throw snap::SnapshotError("core checkpoint thread index out of range");
    blocked_ = false;
}

} // namespace bf::core
