#include "translate/victima.hh"

namespace bf::translate
{

VictimaBackend::VictimaBackend(unsigned core_id,
                               const core::MmuParams &params,
                               TranslateStats &stats,
                               stats::StatGroup &group)
    : PipelineBackend(core_id, params, stats, group),
      vgroup_("victima", &group)
{
    vgroup_.addStat("spills", &spills_);
    vgroup_.addStat("probes", &probes_);
    vgroup_.addStat("store_hits", &store_hits_);
}

std::uint64_t
VictimaBackend::storeLine(std::size_t slot) const
{
    // One metadata line per slot. Per-core disjoint: parked
    // translations live in the owning core's private cache and must not
    // be probed away by another core's spills.
    return static_cast<std::uint64_t>(core_id_) * kStoreEntries + slot;
}

void
VictimaBackend::fillL2(const tlb::TlbEntry &entry, const Requester &req,
                       WalkSource &src)
{
    tlb::TlbEntry copy = entry;
    copy.ccid = req.ccid;
    copy.pcid = req.pcid;
    copy.fill_pcid = req.pcid;
    tlb::TlbEntry evicted;
    if (l2_[sizeIndex(copy.size)]->fill(copy, params_.babelfish,
                                        &evicted)) {
        noteL2Evicted(req, evicted);
        const std::size_t slot = store_.insert(evicted);
        ++spills_;
        // The spill models data-array occupancy of the parked line in
        // the core's private L2 — where Victima stores translations —
        // off the translation's critical path, so no latency is billed
        // and no epoch event is logged (an unbilled logged access would
        // carry a timestamp ahead of the core's next billed event and
        // break the per-core append-order invariant; see core/epoch.cc).
        // If L2 later evicts the line, the backfill probe's billed read
        // naturally pays the L3/DRAM trip to fetch it back.
        src.touchMetaLine(storeLine(slot));
    }
}

bool
VictimaBackend::backfill(const Requester &req, Addr va, AccessType type,
                         int process_bit, WalkSource &src, Cycles now,
                         Cycles &cycles, tlb::TlbEntry &out)
{
    ++probes_;
    for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                          PageSize::Size1G}) {
        std::size_t slot = 0;
        const tlb::TlbEntry *e = store_.probe(
            va >> pageShift(size), size, req.pcid, req.ccid,
            params_.babelfish, process_bit, &slot);
        if (!e)
            continue;
        // A write to a CoW-marked spilled entry must fault: fall
        // through to the walk so the kernel privatizes the page.
        if (type == AccessType::Write && e->cow)
            return false;
        cycles += src.readMetaLine(storeLine(slot), now);
        out = *e;
        out.lru = 0;
        store_.erase(slot); // migrate back into the TLBs
        ++store_hits_;
        return true;
    }
    return false;
}

void
VictimaBackend::invalidateExtra(const vm::TlbInvalidate &inv)
{
    store_.invalidate(inv);
}

void
VictimaBackend::flushExtra()
{
    store_.clear();
}

} // namespace bf::translate
