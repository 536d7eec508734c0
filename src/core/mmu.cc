#include "core/mmu.hh"

#include "common/logging.hh"
#include "vm/paging.hh"

namespace bf::core
{

Mmu::Mmu(unsigned core_id, const MmuParams &params,
         mem::CacheHierarchy &hierarchy, vm::Kernel &kernel,
         stats::StatGroup *parent)
    : core_id_(core_id), params_(params), hierarchy_(hierarchy),
      kernel_(kernel), stat_group_("mmu", parent),
      // The backend registers its structure subgroups (TLBs, PWC, and
      // any competitor-specific groups) first, then the walker, then the
      // access-level scalars join the group — the construction order of
      // the pre-zoo Mmu, so the stats tree is byte-identical for
      // the reference backend.
      backend_(translate::createBackend(core_id, params_, *this,
                                        stat_group_)),
      walker_(core_id, hierarchy, kernel, backend_->pwc(),
              params_.babelfish, &stat_group_),
      // Metadata lines (Victima's parked translations) sit above the
      // top of simulated DRAM so they never alias real data.
      meta_base_(kernel.params().mem_frames << 12)
{
    translate::forEachStat(
        static_cast<translate::TranslateStats &>(*this),
        [this](const char *name, const auto &stat) {
            stat_group_.addStat(name, &stat);
        });
}

Translation
Mmu::translate(vm::Process &proc, Addr canonical_va, AccessType type,
               Cycles now)
{
    const translate::Requester req{proc.pcid(), proc.ccid(), proc.pid(),
                                   proc.attribSlot()};
    walking_ = &proc;
    process_bit_ = kBitUnasked;
    translated_ = true;
    Translation result;
    for (int attempt = 0; attempt < 8; ++attempt) {
        const translate::Attempt a = backend_->attempt(
            req, canonical_va, type, now, *this, result);
        if (a.kind == translate::Attempt::Kind::Hit)
            return result;
        // Page fault (declared CoW, not-present or CoW walk): defer it
        // in the bound phase, otherwise invoke the OS and retry.
        const vm::DeferredFault fault{
            &proc, canonical_va, type,
            a.kind == translate::Attempt::Kind::CowFault, a.size};
        if (epoch_log_ && epoch_log_->active()) {
            epoch_log_->deferFault(fault, now + result.cycles);
            result.blocked = true;
            return result;
        }
        result.cycles += serviceFault(fault, now + result.cycles).cycles;
        result.faulted = true;
    }
    bf_panic("translation did not converge at va=", canonical_va);
}

vm::FaultOutcome
Mmu::serviceFault(const vm::DeferredFault &fault, Cycles ts)
{
    const vm::Process &proc = *fault.proc;
    if (tracer_)
        tracer_->setKernelContext(core_id_, ts);
    const vm::FaultOutcome outcome = kernel_.serviceFault(fault);
    bf_assert(outcome.kind != vm::FaultKind::Protection,
              "protection fault at va=", fault.canonical_va,
              " pid=", proc.pid());
    if (tracer_) {
        tracer_->record(
            core_id_, trace::EventType::FaultService, ts, proc.ccid(),
            proc.pid(), fault.canonical_va,
            trace::packFault(outcome.cycles, proc.pcid(),
                             static_cast<unsigned>(fault.stale_size),
                             fault.declared_cow),
            static_cast<std::uint8_t>(outcome.kind));
        tracer_->clearKernelContext();
    }

    fault_cycles += outcome.cycles;
    if (fault.declared_cow) {
        // A raced fill: a sibling resolved the page between this core's
        // TLB fill and the fault — only this core's copy is stale.
        if (outcome.kind == vm::FaultKind::None)
            applyInvalidate({vm::TlbInvalidate::Kind::Page, proc.ccid(),
                             proc.pcid(),
                             fault.canonical_va >>
                                 pageShift(fault.stale_size),
                             1, fault.stale_size});
        // The TLB-hit CoW sites count cow_faults unconditionally, even
        // when the kernel reports a raced fill (FaultKind::None).
        ++cow_faults;
        return outcome;
    }
    switch (outcome.kind) {
      case vm::FaultKind::Minor: ++minor_faults; break;
      case vm::FaultKind::Major: ++major_faults; break;
      case vm::FaultKind::Cow: ++cow_faults; break;
      case vm::FaultKind::SharedInstall: ++shared_installs; break;
      default: break;
    }
    return outcome;
}

int
Mmu::processBit(const translate::Requester &req, Addr va)
{
    (void)req;
    // Once per translate, on the first pass that gets past the L0 (and
    // so before any fault service): retries keep the bit the first pass
    // saw, and mid-translate mask changes show on the next translate.
    if (process_bit_ == kBitUnasked)
        process_bit_ =
            params_.babelfish ? cachedProcessBit(*walking_, va) : -1;
    return process_bit_;
}

tlb::WalkResult
Mmu::walk(const translate::Requester &req, Addr va, AccessType type,
          Cycles now)
{
    (void)req;
    return walker_.walk(*walking_, va, type, now);
}

Cycles
Mmu::readMetaLine(std::uint64_t line, Cycles now)
{
    // Enters at the L2 data cache, like page-walker requests.
    return hierarchy_
        .access(core_id_, metaAddr(line), AccessType::Read, now,
                /*start_at_l2=*/true)
        .latency;
}

void
Mmu::touchMetaLine(std::uint64_t line)
{
    bool dirty = false;
    hierarchy_.l2(core_id_).accessAndFill(metaAddr(line),
                                          /*is_write=*/true, dirty);
}

int
Mmu::cachedProcessBit(const vm::Process &proc, Addr canonical_va)
{
    // Kernel::processBit's own fast path, answered before the memo: a
    // process that never CoW'ed in a shared region owns no bit.
    if (!proc.hasMaskBits())
        return -1;
    // processBit() depends on the VA only through the region bases at
    // the three possible leaf levels, and the finest (1 GB) base
    // determines the coarser two — so {pid, 1 GB region} keys the
    // answer exactly.
    const Addr region = vm::tableBase(canonical_va, vm::LevelPte + 1);
    // 1 GB regions make the low 30 bits of `region` zero; fold the
    // next bits with the pid for the slot index.
    const std::size_t slot =
        ((region >> 30) ^ proc.pid()) & (kPbCacheSize - 1);
    PbCache &pb = pb_cache_[slot];
    if (pb.gen_ptr && pb.pid == proc.pid() && pb.region == region &&
        *pb.gen_ptr == pb.gen)
        return pb.bit;

    const std::uint64_t *gen_ptr = kernel_.maskGenerationPtr(proc.ccid());
    pb.gen_ptr = gen_ptr;
    pb.gen = gen_ptr ? *gen_ptr : 0;
    pb.pid = proc.pid();
    pb.region = region;
    pb.bit = kernel_.processBit(proc, canonical_va);
    return pb.bit;
}

void
Mmu::restore(snap::ArchiveReader &ar)
{
    backend_->restore(ar);
    translated_ = true;
    // The processBit memo re-warms on first use with no stat side
    // effects, so resuming cold here is invisible to stats.
    pb_cache_.fill(PbCache{});
}

} // namespace bf::core
