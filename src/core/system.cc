#include "core/system.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::core
{

namespace
{

/** Minimum host seconds between two writes of the live bf_top table. */
constexpr double topIntervalSeconds = 0.5;

/**
 * Capture the translation-relevant machine configuration into the trace
 * header so the file is self-describing for replay (DESIGN.md §13).
 */
trace::TraceConfig
traceConfig(const SystemParams &params)
{
    trace::TraceConfig cfg;
    const MmuParams &mp = params.mmu;
    const tlb::TlbParams *tlbs[trace::traceNumTlbs] = {
        &mp.l1i_4k, &mp.l1d_4k, &mp.l1d_2m, &mp.l1d_1g,
        &mp.l2_4k, &mp.l2_2m, &mp.l2_1g,
    };
    for (unsigned i = 0; i < trace::traceNumTlbs; ++i) {
        const tlb::TlbParams &tp = *tlbs[i];
        trace::TraceTlbConfig &out = cfg.tlb[i];
        out.entries = tp.entries;
        out.assoc = static_cast<std::uint16_t>(tp.assoc);
        out.access_cycles = static_cast<std::uint16_t>(tp.access_cycles);
        out.bitmask_extra_cycles =
            static_cast<std::uint16_t>(tp.bitmask_extra_cycles);
        out.policy = static_cast<std::uint8_t>(tp.policy);
    }
    cfg.pwc_entries_per_level = mp.pwc.entries_per_level;
    cfg.pwc_assoc = static_cast<std::uint16_t>(mp.pwc.assoc);
    cfg.pwc_levels = static_cast<std::uint16_t>(mp.pwc.levels);
    cfg.pwc_access_cycles =
        static_cast<std::uint16_t>(mp.pwc.access_cycles);
    cfg.aslr_transform_cycles =
        static_cast<std::uint16_t>(mp.aslr_transform_cycles);
    cfg.babelfish = mp.babelfish;
    cfg.l1_sharing = mp.l1Sharing();
    cfg.force_long_l2 = mp.force_long_l2 && mp.babelfish;
    cfg.aslr_hw = mp.aslr == vm::AslrMode::Hw;
    cfg.opc_width =
        static_cast<std::uint8_t>(params.kernel.max_cow_writers);
    cfg.backend = static_cast<std::uint8_t>(mp.backend);
    return cfg;
}

} // namespace

System::System(const SystemParams &params)
    : params_(params), stat_group_("system")
{
    bf_assert(params_.kernel.babelfish || !params_.mmu.l1Sharing(),
              "L1 sharing requires BabelFish kernel");
    bf_assert(params_.sync_chunk > 0, "sync_chunk must be > 0");
    // Keep MMU and kernel ASLR config coherent.
    params_.mmu.aslr = params_.kernel.aslr;

    kernel_ = std::make_unique<vm::Kernel>(params_.kernel, &stat_group_);
    hierarchy_ = std::make_unique<mem::CacheHierarchy>(
        params_.mem, params_.num_cores, &stat_group_);
    for (unsigned i = 0; i < params_.num_cores; ++i) {
        cores_.push_back(std::make_unique<Core>(
            i, params_.core, params_.mmu, *hierarchy_, *kernel_,
            &stat_group_));
        epoch_logs_.push_back(std::make_unique<EpochLog>(i));
        cores_[i]->setEpochLog(epoch_logs_[i].get());
        hierarchy_->setEpochLog(i, epoch_logs_[i].get());
    }

    attrib_ = std::make_unique<attrib::Registry>(&stat_group_,
                                                 params_.num_cores);
    kernel_->setAttribRegistry(attrib_.get());
    for (unsigned i = 0; i < params_.num_cores; ++i)
        cores_[i]->setAttrib(attrib_.get(), attrib_->sink(i));

    // More workers than cores cannot help: every pool round has at
    // most one item per core (plus the weave item).
    const unsigned workers = std::min<unsigned>(
        std::max(1u, params_.workers), params_.num_cores);
    pool_ = std::make_unique<BoundPool>(workers - 1);

    kernel_->setTlbInvalidateHook([this](const vm::TlbInvalidate &inv) {
        for (auto &core : cores_)
            core->mmu().applyInvalidate(inv);
    });

    if (!params_.trace_path.empty()) {
        tracer_ = std::make_unique<trace::Tracer>(
            params_.trace_path, params_.num_cores, params_.trace_limit,
            traceConfig(params_));
        if (tracer_->ok()) {
            kernel_->setTracer(tracer_.get());
            for (auto &core : cores_)
                core->mmu().setTracer(tracer_.get());
            tracer_->setSlotLookup([this](std::uint32_t pid) {
                return attrib_->slotOfPid(pid);
            });
        } else {
            tracer_.reset();
        }
    }

    stat_group_.addStat("run_capped", &run_capped);
}

void
System::runChunk(Cycles barrier)
{
    using hostclock = std::chrono::steady_clock;
    const auto elapsed = [](hostclock::time_point from,
                            hostclock::time_point to) {
        return std::chrono::duration<double>(to - from).count();
    };

    for (auto &log : epoch_logs_)
        log->activate();

    // Bound: every core advances to the barrier on its own worker,
    // touching only per-core-private state. Cores that hit a page fault
    // suspend early with the fault parked in their log.
    const auto t_bound = hostclock::now();
    pool_->run(numCores(),
               [&](unsigned i) { cores_[i]->runUntil(barrier); });
    const auto t_fault = hostclock::now();
    phase_times_.bound_seconds += elapsed(t_bound, t_fault);

    // Service deferred faults single-threaded in (fault time, core)
    // order, then resume the suspended cores through the pool; they may
    // fault again, so iterate until every core reaches the barrier. No
    // core is executing during service, so the kernel may mutate page
    // tables and broadcast shootdowns freely.
    for (;;) {
        pending_faults_.clear();
        for (unsigned c = 0; c < numCores(); ++c) {
            if (epoch_logs_[c]->faultPending())
                pending_faults_.push_back(
                    {epoch_logs_[c]->faultTime(), c});
        }
        if (pending_faults_.empty())
            break;
        const auto t_service = hostclock::now();
        std::sort(pending_faults_.begin(), pending_faults_.end(),
                  [](const PendingFault &a, const PendingFault &b) {
                      return a.ts != b.ts ? a.ts < b.ts
                                          : a.core < b.core;
                  });

        for (const auto &pf : pending_faults_) {
            EpochLog &log = *epoch_logs_[pf.core];
            const vm::DeferredFault fault = log.fault();
            log.clearFault();

            const vm::FaultOutcome outcome =
                cores_[pf.core]->mmu().serviceFault(fault, pf.ts);
            cores_[pf.core]->resolveFault(outcome.cycles);
        }
        phase_times_.fault_service_seconds +=
            elapsed(t_service, hostclock::now());

        // Resume the unblocked cores in one pool round: like the bound
        // phase, each touches only its own private state (the kernel
        // stays read-only until the next service round), so running
        // them concurrently is state-identical to running them one by
        // one. The round's join is the barrier before the next service.
        pool_->run(static_cast<unsigned>(pending_faults_.size()),
                   [&](unsigned k) {
                       cores_[pending_faults_[k].core]->runUntil(barrier);
                   });
    }
    const auto t_weave = hostclock::now();
    phase_times_.fault_seconds += elapsed(t_fault, t_weave);

    for (auto &log : epoch_logs_)
        log->deactivate();
    weave();
    // Fold the per-core attribution sinks at the barrier: single-
    // threaded, fixed core order, so per-tenant totals are canonical
    // and complete whenever the system is observable from outside.
    drainAttrib();
    maybeWriteTop();
    // Flush after the weave so every chunk appends exactly one
    // canonically ordered block (see common/trace/trace.hh).
    if (tracer_)
        tracer_->flushBarrier();
}

void
System::drainAttrib() const
{
    for (auto &core : cores_)
        core->flushAttribWindow();
    attrib_->drain();
}

void
System::weave()
{
    using hostclock = std::chrono::steady_clock;
    const auto t_round = hostclock::now();

    // Per-tenant DRAM-excess lanes: sized at weave time, after every
    // fault window of the chunk, so any slot a logged event can carry
    // already exists.
    const auto nslots = static_cast<unsigned>(attrib_->numTenants());
    weave_scratch_.reset(numCores(), nslots);

    // One pool round (DESIGN.md §15). Item 0 merges the logs and replays
    // the access stream against L3/DRAM; item 1 + p drains the
    // coherence probes owed to peer p's private caches. The items touch
    // disjoint simulated state and stats (the replay bumps the L3/DRAM
    // counters in place; a drain only its peer's private caches) and
    // only read the logs, and a peer's probe outcome is
    // order-independent, so the round is state-identical to the serial
    // drain at any worker count.
    //
    // Merge: the per-core logs are already (ts, seq)-sorted, so a
    // linear k-way ladder reproduces the canonical (ts, core, seq)
    // order the historical global sort produced — see core/epoch.hh.
    // The key is unique, so the replay order — and with it every
    // L3/DRAM stat, LRU update and fill — is independent of how bound
    // work was scheduled onto host threads.
    double merge_seconds = 0;
    const unsigned peers = hierarchy_->coherenceActive() ? numCores() : 0;
    pool_->run(1 + peers, [&](unsigned i) {
        if (i > 0) {
            hierarchy_->drainProbes(i - 1);
            return;
        }
        const auto t_merge = hostclock::now();
        mergeEpochLogs(epoch_logs_, weave_stream_);
        merge_seconds =
            std::chrono::duration<double>(hostclock::now() - t_merge)
                .count();
        hierarchy_->weaveSerial(weave_stream_, weave_scratch_);
    });
    for (auto &log : epoch_logs_)
        log->clearEvents();

    // Bill the DRAM excess per core, then per issuing tenant, in fixed
    // order.
    for (unsigned c = 0; c < numCores(); ++c) {
        const Cycles data_extra = weave_scratch_.data_extra[c];
        const Cycles walk_extra = weave_scratch_.walk_extra[c];
        if (data_extra || walk_extra)
            cores_[c]->applyWeaveAdjustment(data_extra, walk_extra);
    }
    for (unsigned t = 0; t < nslots; ++t) {
        if (const Cycles extra = weave_scratch_.slot_data_extra[t])
            attrib_->addDramExtra(static_cast<int>(t), false, extra);
        if (const Cycles extra = weave_scratch_.slot_walk_extra[t])
            attrib_->addDramExtra(static_cast<int>(t), true, extra);
    }

    // merge is the merge item's own time; weave is the rest of the
    // round (replay, concurrent probe drains, billing), so the phases
    // still add up to no more than the host time of the run.
    const double round_seconds =
        std::chrono::duration<double>(hostclock::now() - t_round).count();
    phase_times_.merge_seconds += merge_seconds;
    phase_times_.weave_seconds += round_seconds - merge_seconds;
}

void
System::enableSampling(Cycles interval)
{
    if (sampler_.names().empty()) {
        using TS = translate::TranslateStats;
        auto total = [this](auto... counters) {
            return [this, counters...] {
                return (totalTranslateStat(counters) + ...);
            };
        };
        sampler_.addProbe("instructions", [this] {
            return totalInstructions();
        });
        sampler_.addProbe("l2_tlb_data_hits", total(&TS::l2_data_hits));
        sampler_.addProbe("l2_tlb_data_misses", total(&TS::l2_data_misses));
        sampler_.addProbe("l2_tlb_instr_hits", total(&TS::l2_instr_hits));
        sampler_.addProbe("l2_tlb_instr_misses",
                          total(&TS::l2_instr_misses));
        sampler_.addProbe("l2_tlb_shared_hits",
                          total(&TS::l2_data_shared_hits,
                                &TS::l2_instr_shared_hits));
        sampler_.addProbe("walks", [this] {
            std::uint64_t total = 0;
            for (const auto &core : cores_)
                total += core->mmu().walker().walks.value();
            return total;
        });
        sampler_.addProbe("walk_cycles", [this] {
            std::uint64_t total = 0;
            for (const auto &core : cores_)
                total += core->mmu().walker().walk_cycles.value();
            return total;
        });
        sampler_.addProbe("l2_cache_misses", [this] {
            std::uint64_t total = 0;
            for (unsigned c = 0; c < numCores(); ++c)
                total += hierarchy_->l2(c).misses.value();
            return total;
        });
        sampler_.addProbe("l3_misses", [this] {
            return hierarchy_->l3().misses.value();
        });
        sampler_.addProbe("dram_reads", [this] {
            return hierarchy_->dram().reads.value();
        });
        sampler_.addProbe("minor_faults", [this] {
            return kernel_->minor_faults.value();
        });
        sampler_.addProbe("cow_faults", [this] {
            return kernel_->cow_faults.value();
        });
        // Headline interference series: L2 TLB evictions whose
        // aggressor and victim sit in different CCID groups.
        sampler_.addProbe("cross_l2_evictions", [this] {
            return attrib_->crossL2Evictions();
        });
    }
    sampler_.setInterval(interval);
}

void
System::addThread(unsigned core, Thread *thread)
{
    bf_assert(core < cores_.size(), "core out of range");
    cores_[core]->addThread(thread);
}

void
System::run(Cycles duration)
{
    Cycles start = 0;
    for (const auto &core : cores_)
        start = std::max(start, core->now());
    const Cycles end = start + duration;

    Cycles barrier = start;
    while (barrier < end) {
        barrier = std::min(barrier + params_.sync_chunk, end);
        runChunk(barrier);
        sampler_.observe(barrier);
    }
}

void
System::runUntilFinished(Cycles max_cycles)
{
    Cycles start = 0;
    for (const auto &core : cores_)
        start = std::max(start, core->now());
    const Cycles end = start + max_cycles;

    Cycles barrier = start;
    while (barrier < end) {
        bool any_busy = false;
        for (const auto &core : cores_) {
            if (core->busy()) {
                any_busy = true;
                break;
            }
        }
        if (!any_busy)
            return;
        barrier = std::min(barrier + params_.sync_chunk, end);
        runChunk(barrier);
        sampler_.observe(barrier);
    }
    ++run_capped;
    warn("runUntilFinished hit the cycle cap");
}

template <class Ar>
void
System::manifestIo(Ar &ar) const
{
    // Every state-shaping parameter (forEachParam) plus the topology, so
    // restoreCheckpoint() recognizes, before any state is mutated, that
    // an archive belongs to a differently built world.
    ar.section("MANI", [&] {
        paramsIo(ar, params_);
        for (const auto &core : cores_) {
            ar.expect(static_cast<std::uint32_t>(core->threads().size()),
                      "manifest mismatch: per-core thread count");
        }
        const auto procs = kernel_->processes();
        ar.expect(static_cast<std::uint32_t>(procs.size()),
                  "manifest mismatch: process count");
        for (const vm::Process *proc : procs)
            ar.expect(proc->pid(), "manifest mismatch: process pids");
        ar.expect(static_cast<std::uint64_t>(kernel_->objectCount()),
                  "manifest mismatch: object count");
        const auto ccids = kernel_->groupCcids();
        ar.expect(static_cast<std::uint32_t>(ccids.size()),
                  "manifest mismatch: group count");
        for (const Ccid ccid : ccids)
            ar.expect(ccid, "manifest mismatch: group ccids");
    });
}

template <class Ar, class Self>
void
System::stateIo(Ar &ar, Self &self)
{
    ar.section("KERN", [&] { ar.part(*self.kernel_); });
    ar.section("MEMH", [&] { ar.part(*self.hierarchy_); });
    for (const auto &core : self.cores_)
        ar.section("CORE", [&] { ar.part(*core); });
    ar.section("THRD", [&] {
        for (const auto &core : self.cores_) {
            for (Thread *thread : core->threads())
                ar.part(*thread, &Thread::saveState, &Thread::restoreState);
        }
    });
    ar.section("SAMP", [&] { ar.part(self.sampler_); });

    // Sinks are drained at every chunk barrier, but direct translate()
    // calls outside run() (tests) may leave booked-but-undrained lanes
    // or an open per-core window. Fold them first: a save then holds
    // the complete totals, and a restore zeroes them before overwriting
    // the tenant scalars they would fold into.
    self.drainAttrib();
    ar.section("STAT", [&] {
        ar.part(self.stat_group_, &stats::StatGroup::saveStats,
                &stats::StatGroup::restoreStats);
    });
}

bool
System::saveCheckpoint(const std::string &path) const
{
    snap::ArchiveWriter ar;
    manifestIo(ar);
    stateIo(ar, *this);
    return ar.writeFile(path);
}

bool
System::restoreCheckpoint(const std::string &path)
{
    std::optional<snap::ArchiveReader> reader;
    try {
        reader.emplace(snap::ArchiveReader::fromFile(path));
    } catch (const snap::SnapshotError &err) {
        warn("checkpoint rejected (", path, "): ", err.what(),
             " — cold start");
        return false;
    }
    snap::ArchiveReader &ar = *reader;

    // MANI is fully checked before any state mutates. Until `mutating`
    // flips, any mismatch leaves the system untouched and the caller
    // falls back to a cold start. After it flips, partial state has been
    // overwritten, so a decode error is fatal.
    bool mutating = false;
    try {
        manifestIo(ar);
        mutating = true;
        stateIo(ar, *this);
        // The restore just rewrote the global counters underneath the
        // cores' window bases; re-base so the next flush credits only
        // post-restore growth.
        for (auto &core : cores_)
            core->syncAttribWindow();

        if (!ar.atEnd())
            throw snap::SnapshotError("trailing bytes after last section");
    } catch (const snap::SnapshotError &err) {
        if (!mutating) {
            warn("checkpoint rejected (", path, "): ", err.what(),
                 " — cold start");
            return false;
        }
        bf_fatal("checkpoint ", path,
                 " corrupt mid-restore (state already overwritten): ",
                 err.what());
    }
    return true;
}

void
System::enableTopFile(std::string path)
{
    top_path_ = std::move(path);
    top_start_host_ =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    top_last_write_ = -topIntervalSeconds; // First barrier writes at once.
    top_instr_base_ = totalInstructions();
}

void
System::maybeWriteTop()
{
    if (top_path_.empty())
        return;
    const double now =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count() -
        top_start_host_;
    if (now - top_last_write_ < topIntervalSeconds)
        return;
    top_last_write_ = now;
    const double mips =
        now > 0 ? static_cast<double>(totalInstructions() -
                                      top_instr_base_) /
                      1e6 / now
                : -1.0;
    // Atomic publish: readers (bf_top) never see a torn table.
    const std::string tmp = top_path_ + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
        return;
    out << attrib_->renderTable(mips);
    out.close();
    if (out)
        std::rename(tmp.c_str(), top_path_.c_str());
}

void
System::resetStats()
{
    // Mark the warm-up/measure boundary in the trace: replay resets its
    // model statistics at the same point, so its counters line up with
    // the measurement window of the recorded stats. resetStats is only
    // called between run() calls, i.e. at a flushed block boundary, so
    // the marker always leads the following block.
    // Stamped at core 0's own clock: core 0's next events carry both a
    // later timestamp and a later seq, which keeps the canonical per-core
    // ordering invariants intact (a cross-core max could sort after
    // core 0's next-chunk events while holding an earlier seq).
    if (tracer_)
        tracer_->record(0, trace::EventType::StatsReset,
                        cores_.empty() ? 0 : cores_[0]->now(), 0, 0, 0);
    // Scope: the core subtrees and the caches group. system.kernel
    // keeps its whole-run counts.
    for (auto &core : cores_)
        core->resetStats();
    hierarchy_->stats().resetTree();
    // Mirror the scope of the resets above: core-sourced tenant stats
    // reset, kernel-sourced ones (CoW, shootdowns) survive like the
    // kernel's own, so per-tenant sums still reconcile with the
    // globals after a warm-up reset.
    attrib_->resetCoreStats();
    run_capped.reset();
    if (sampler_.enabled())
        sampler_.beginPhase();
}

std::uint64_t
System::totalInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->instructions.value();
    return total;
}

std::uint64_t
System::totalTranslateStat(
    stats::Scalar translate::TranslateStats::*counter) const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += (core->mmu().*counter).value();
    return total;
}

} // namespace bf::core
