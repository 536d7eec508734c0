#include "translate/coalesced.hh"

namespace bf::translate
{

CoalescedBackend::CoalescedBackend(unsigned core_id,
                                   const core::MmuParams &params,
                                   TranslateStats &stats,
                                   stats::StatGroup &group)
    : PipelineBackend(core_id, params, stats, group),
      cgroup_("coalesced", &group)
{
    cgroup_.addStat("range_hits", &range_hits_);
    cgroup_.addStat("range_installs", &range_installs_);
}

tlb::TlbLookup
CoalescedBackend::lookupL2(const Requester &req, Addr va, int process_bit,
                           PageSize &size_out)
{
    tlb::TlbLookup base =
        PipelineBackend::lookupL2(req, va, process_bit, size_out);
    if (base.hit())
        return base;

    const Vpn vpn = va >> pageShift(PageSize::Size4K);
    const RangeEntry *range = ranges_.lookup(vpn, req.pcid);
    if (!range)
        return base;

    ++range_hits_;
    scratch_ = tlb::TlbEntry{};
    scratch_.valid = true;
    scratch_.vpn = vpn;
    scratch_.ppn = range->base_ppn + (vpn - range->base_vpn);
    scratch_.size = PageSize::Size4K;
    scratch_.pcid = req.pcid;
    scratch_.ccid = range->ccid;
    scratch_.writable = true;
    scratch_.user = true;
    // Private entry: the PCID matched, so it behaves as owned with no
    // private-copy bitmask (coalescing excludes all O-PC cases).
    scratch_.owned = true;
    scratch_.fill_pcid = req.pcid;

    tlb::TlbLookup lookup;
    lookup.entry = &scratch_;
    lookup.bitmask_checked = base.bitmask_checked;
    size_out = PageSize::Size4K;
    return lookup;
}

void
CoalescedBackend::fillL2(const tlb::TlbEntry &entry, const Requester &req,
                         WalkSource &src)
{
    PipelineBackend::fillL2(entry, req, src);
    if (entry.size != PageSize::Size4K || entry.cow || entry.orpc ||
        entry.pc_bitmask != 0)
        return;
    RunDetector::Run run;
    if (detector_.note(req.pcid, entry.vpn, entry.ppn, run)) {
        ranges_.insert(run.base_vpn, run.base_ppn, run.len, req.pcid,
                       req.ccid);
        ++range_installs_;
    }
}

void
CoalescedBackend::invalidateExtra(const vm::TlbInvalidate &inv)
{
    ranges_.invalidate(inv);
    // A live run could span a just-remapped page and later install a
    // stale range; resetting the detector forfeits only coalescing
    // opportunity, never correctness.
    detector_.clear();
}

void
CoalescedBackend::flushExtra()
{
    ranges_.clear();
    detector_.clear();
}

} // namespace bf::translate
