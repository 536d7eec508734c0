#include "mem/hierarchy.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::mem
{

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               unsigned num_cores,
                               stats::StatGroup *parent)
    : params_(params), num_cores_(num_cores), stat_group_("caches", parent)
{
    bf_assert(num_cores_ > 0, "hierarchy needs at least one core");
    for (unsigned c = 0; c < num_cores_; ++c) {
        core_groups_.push_back(std::make_unique<stats::StatGroup>(
            "core" + std::to_string(c), &stat_group_));
        l1i_.push_back(std::make_unique<Cache>(params_.l1i,
                                               core_groups_[c].get()));
        l1d_.push_back(std::make_unique<Cache>(params_.l1d,
                                               core_groups_[c].get()));
        l2_.push_back(std::make_unique<Cache>(params_.l2,
                                              core_groups_[c].get()));
    }
    l3_ = std::make_unique<Cache>(params_.l3, &stat_group_);
    dram_ = std::make_unique<Dram>(params_.dram, &stat_group_);
    epoch_logs_.resize(num_cores_, nullptr);
    // With a single core there are no peer caches to probe, so the
    // coherence walk would only burn host time without touching a stat.
    coherence_active_ = params_.model_coherence && num_cores_ > 1;
}

MemAccessResult
CacheHierarchy::access(unsigned core, Addr paddr, AccessType type,
                       Cycles now, bool start_at_l2)
{
    bf_assert(core < num_cores_, "core ", core, " out of range");
    const bool is_write = type == AccessType::Write;

    // Each level uses accessAndFill: one scan of the set answers the
    // lookup and (on a miss) performs the fill. Each cache owns its own
    // LRU clock, and the DRAM timestamp sees the accumulated L1+L2+L3
    // latency.
    MemAccessResult result;
    Cache *l1 = isIfetch(type) ? l1i_[core].get() : l1d_[core].get();
    bool dirty = false;

    // Bound phase: only the issuing core's private L1/L2 may be touched.
    // Shared-level work (L3 lookup, DRAM, coherence probes of peers) is
    // appended to the core's event log and replayed by the weave in
    // canonical order — see core/epoch.hh.
    core::EpochLog *log = epoch_logs_[core];
    if (log && !log->active())
        log = nullptr;

    if (!start_at_l2) {
        result.latency += l1->accessCycles();
        if (l1->accessAndFill(paddr, is_write, dirty)) {
            result.served_by = MemLevel::L1;
            if (is_write && coherence_active_) {
                if (log)
                    log->appendWrite(paddr);
                else
                    probeInvalidate(core, paddr);
            }
            return result;
        }
    }

    Cache *l2 = l2_[core].get();
    result.latency += l2->accessCycles();
    if (l2->accessAndFill(paddr, is_write, dirty)) {
        result.served_by = MemLevel::L2;
    } else {
        result.latency += l3_->accessCycles();
        if (log) {
            // Deferred: charge the deterministic L3 access time now
            // (the weave replays the access through sharedAccess and
            // bills the DRAM excess, if any). served_by is provisional.
            result.served_by = MemLevel::L3;
            log->appendAccess(now + result.latency, paddr, type,
                              start_at_l2);
        } else {
            Cycles dram_cycles = 0;
            result.served_by = sharedAccess(paddr, is_write,
                                            now + result.latency,
                                            dram_cycles);
            result.latency += dram_cycles;
        }
    }

    if (is_write && coherence_active_) {
        if (log)
            log->appendWrite(paddr);
        else
            probeInvalidate(core, paddr);
    }
    return result;
}

MemLevel
CacheHierarchy::sharedAccess(Addr paddr, bool is_write, Cycles at,
                             Cycles &dram_cycles)
{
    bool dirty = false;
    if (l3_->accessAndFill(paddr, is_write, dirty))
        return MemLevel::L3;
    dram_cycles = dram_->access(paddr, at, is_write);
    return MemLevel::Memory;
}

void
CacheHierarchy::weaveSerial(const core::WeaveStream &ws, WeaveScratch &sc)
{
    // Each deferred miss takes the shared levels exactly as the
    // immediate path would have at its timestamp; only the DRAM excess
    // is left to bill, since the bound phase already charged the L3
    // access time.
    for (const core::EpochEvent &ev : ws) {
        Cycles extra = 0;
        if (sharedAccess(ev.paddr, ev.flags & core::EpochEvent::write,
                         ev.ts, extra) == MemLevel::L3)
            continue;
        if (ev.flags & core::EpochEvent::walker) {
            sc.walk_extra[ev.core] += extra;
            if (ev.slot < sc.slot_walk_extra.size())
                sc.slot_walk_extra[ev.slot] += extra;
        } else {
            sc.data_extra[ev.core] += extra;
            if (ev.slot < sc.slot_data_extra.size())
                sc.slot_data_extra[ev.slot] += extra;
        }
    }
}

void
CacheHierarchy::drainProbes(unsigned peer)
{
    if (!coherence_active_)
        return;
    Cache &l1i = *l1i_[peer];
    Cache &l1d = *l1d_[peer];
    Cache &l2 = *l2_[peer];
    for (unsigned c = 0; c < num_cores_; ++c) {
        if (c == peer || !epoch_logs_[c])
            continue;
        for (const Addr paddr : epoch_logs_[c]->writes()) {
            l1i.invalidate(paddr);
            l1d.invalidate(paddr);
            l2.invalidate(paddr);
        }
    }
}

void
CacheHierarchy::probeInvalidate(unsigned writer_core, Addr paddr)
{
    for (unsigned c = 0; c < num_cores_; ++c) {
        if (c == writer_core)
            continue;
        l1i_[c]->invalidate(paddr);
        l1d_[c]->invalidate(paddr);
        l2_[c]->invalidate(paddr);
    }
}

void
CacheHierarchy::flushAll()
{
    for (unsigned c = 0; c < num_cores_; ++c) {
        l1i_[c]->flush();
        l1d_[c]->flush();
        l2_[c]->flush();
    }
    l3_->flush();
}

template <class Ar, class Self>
void
CacheHierarchy::io(Ar &ar, Self &self)
{
    ar.expect(static_cast<std::uint32_t>(self.num_cores_),
              "hierarchy checkpoint core-count mismatch");
    for (unsigned c = 0; c < self.num_cores_; ++c) {
        ar.part(*self.l1i_[c]);
        ar.part(*self.l1d_[c]);
        ar.part(*self.l2_[c]);
    }
    ar.part(*self.l3_);
    ar.part(*self.dram_);
}

void
CacheHierarchy::save(snap::ArchiveWriter &ar) const
{
    io(ar, *this);
}

void
CacheHierarchy::restore(snap::ArchiveReader &ar)
{
    io(ar, *this);
}

} // namespace bf::mem
