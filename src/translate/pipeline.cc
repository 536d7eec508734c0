#include "translate/pipeline.hh"

#include "common/attrib/attrib.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::translate
{

PipelineBackend::PipelineBackend(unsigned core_id,
                                 const core::MmuParams &params,
                                 TranslateStats &stats,
                                 stats::StatGroup &group)
    : core_id_(core_id), params_(params), st_(stats), group_(group)
{
    l1i_4k_ = std::make_unique<tlb::Tlb>(params_.l1i_4k, &group_);
    l1d_[sizeIndex(PageSize::Size4K)] =
        std::make_unique<tlb::Tlb>(params_.l1d_4k, &group_);
    l1d_[sizeIndex(PageSize::Size2M)] =
        std::make_unique<tlb::Tlb>(params_.l1d_2m, &group_);
    l1d_[sizeIndex(PageSize::Size1G)] =
        std::make_unique<tlb::Tlb>(params_.l1d_1g, &group_);
    l2_[sizeIndex(PageSize::Size4K)] =
        std::make_unique<tlb::Tlb>(params_.l2_4k, &group_);
    l2_[sizeIndex(PageSize::Size2M)] =
        std::make_unique<tlb::Tlb>(params_.l2_2m, &group_);
    l2_[sizeIndex(PageSize::Size1G)] =
        std::make_unique<tlb::Tlb>(params_.l2_1g, &group_);
    pwc_ = std::make_unique<tlb::Pwc>(params_.pwc, &group_);

    // The L0 front cache replays conventional-lookup side effects; with
    // CCID-shared L1 structures the candidate scan of Fig. 8 is left on
    // the slow path (see the header comment on L0Entry).
    l0_enabled_ = !params_.l1Sharing() && params_.l0_cache;
}

namespace
{

/** Flag byte of the TLB hit/miss events. */
std::uint8_t
hitFlags(AccessType type, const tlb::TlbLookup &lookup)
{
    std::uint8_t flags = 0;
    if (isIfetch(type))
        flags |= trace::flagInstr;
    if (type == AccessType::Write)
        flags |= trace::flagWrite;
    if (lookup.shared_hit)
        flags |= trace::flagSharedHit;
    if (lookup.entry) {
        if (lookup.entry->owned)
            flags |= trace::flagOwned;
        if (lookup.entry->orpc)
            flags |= trace::flagOrpc;
    }
    return flags;
}

/** Flag byte of the TlbFill event. */
std::uint8_t
fillFlags(AccessType type)
{
    std::uint8_t flags = 0;
    if (isIfetch(type))
        flags |= trace::flagInstr;
    if (type == AccessType::Write)
        flags |= trace::flagWrite;
    return flags;
}

/** Physical address of @p va through a hit or filled entry. */
void
resolve(Translation &out, const tlb::TlbEntry &entry, Addr va)
{
    out.size = entry.size;
    out.paddr = (entry.ppn << pageShift(entry.size)) |
                (va & (pageBytes(entry.size) - 1));
}

} // namespace

tlb::TlbLookup
PipelineBackend::lookupL1(const Requester &req, Addr va, AccessType type,
                          int process_bit, PageSize &size_out)
{
    const bool share = params_.l1Sharing();

    auto probeOne = [&](tlb::Tlb &tlb, PageSize size) {
        const Vpn vpn = va >> pageShift(size);
        tlb::TlbLookup lookup =
            share ? tlb.lookupBabelFish(vpn, req.ccid, req.pcid,
                                        process_bit)
                  : tlb.lookupConventional(vpn, req.pcid);
        if (lookup.hit())
            size_out = size;
        return lookup;
    };

    if (isIfetch(type))
        return probeOne(*l1i_4k_, PageSize::Size4K);

    // The three size structures are probed in parallel in hardware.
    for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                          PageSize::Size1G}) {
        tlb::TlbLookup lookup = probeOne(*l1d_[sizeIndex(size)], size);
        if (lookup.hit())
            return lookup;
    }
    return {};
}

tlb::TlbLookup
PipelineBackend::lookupL2(const Requester &req, Addr va, int process_bit,
                          PageSize &size_out)
{
    tlb::TlbLookup result;
    for (PageSize size : {PageSize::Size4K, PageSize::Size2M,
                          PageSize::Size1G}) {
        tlb::Tlb &tlb = *l2_[sizeIndex(size)];
        const Vpn vpn = va >> pageShift(size);
        tlb::TlbLookup lookup =
            params_.babelfish
                ? tlb.lookupBabelFish(vpn, req.ccid, req.pcid,
                                      process_bit)
                : tlb.lookupConventional(vpn, req.pcid);
        result.bitmask_checked |= lookup.bitmask_checked;
        if (lookup.hit()) {
            size_out = size;
            lookup.bitmask_checked = result.bitmask_checked;
            return lookup;
        }
    }
    return result;
}

void
PipelineBackend::noteL1Evicted(const Requester &req,
                               const tlb::TlbEntry &evicted)
{
    // L1 copies are per-process: the PCID tag is the victim's owner.
    if (sink_)
        sink_->noteL1Eviction(req.slot,
                              areg_->slotOfPcid(evicted.pcid));
}

void
PipelineBackend::noteL2Evicted(const Requester &req,
                               const tlb::TlbEntry &evicted)
{
    // Owned entries are tagged with the owner; shared (O-clear) entries
    // carry the filler in fill_pcid — bill the victim that paid for the
    // fill.
    if (sink_)
        sink_->noteL2Eviction(
            req.slot,
            areg_->slotOfPcid(evicted.owned ? evicted.pcid
                                            : evicted.fill_pcid));
}

void
PipelineBackend::fillL1(const tlb::TlbEntry &entry, const Requester &req,
                        AccessType type)
{
    tlb::TlbEntry copy = entry;
    copy.pcid = req.pcid;
    copy.ccid = req.ccid;
    tlb::TlbEntry evicted;
    if (isIfetch(type)) {
        if (copy.size == PageSize::Size4K &&
            l1i_4k_->fill(copy, params_.l1Sharing(),
                          sink_ ? &evicted : nullptr))
            noteL1Evicted(req, evicted);
        return;
    }
    // A data fill can turn a "structure probed before the owner still
    // misses" assumption stale; retire the huge-page L0 slots.
    ++l0_gen_;
    if (l1d_[sizeIndex(copy.size)]->fill(copy, params_.l1Sharing(),
                                         sink_ ? &evicted : nullptr))
        noteL1Evicted(req, evicted);
}

void
PipelineBackend::fillL2(const tlb::TlbEntry &entry, const Requester &req,
                        WalkSource &src)
{
    (void)src;
    tlb::TlbEntry copy = entry;
    copy.ccid = req.ccid;
    // Shared entries keep the PCID of the filler so Shared Hits can be
    // recognized; owned entries are tagged with the owner.
    copy.pcid = req.pcid;
    copy.fill_pcid = req.pcid;
    tlb::TlbEntry evicted;
    if (l2_[sizeIndex(copy.size)]->fill(copy, params_.babelfish,
                                        sink_ ? &evicted : nullptr))
        noteL2Evicted(req, evicted);
}

bool
PipelineBackend::backfill(const Requester &req, Addr va, AccessType type,
                          int process_bit, WalkSource &src, Cycles now,
                          Cycles &cycles, tlb::TlbEntry &out)
{
    (void)req;
    (void)va;
    (void)type;
    (void)process_bit;
    (void)src;
    (void)now;
    (void)cycles;
    (void)out;
    return false;
}

void
PipelineBackend::invalidateExtra(const vm::TlbInvalidate &inv)
{
    (void)inv;
}

void
PipelineBackend::flushExtra()
{
}

void
PipelineBackend::installL0(Addr va, Pcid pcid, AccessType type,
                           PageSize size, const tlb::TlbEntry *entry)
{
    if (!l0_enabled_)
        return;
    const bool ifetch = isIfetch(type);
    const unsigned kind = ifetch ? 0 : 1 + sizeIndex(size);
    L0Entry &slot = l0_[l0Index(va >> 12, pcid, ifetch)];
    slot.vpn4k = va >> 12;
    // The entry pointer stays valid for the structure's lifetime
    // (entries_ never reallocates); the fast path re-validates its
    // identity and re-reads the payload on every use.
    slot.entry = const_cast<tlb::TlbEntry *>(entry);
    slot.owner = ifetch ? l1i_4k_.get() : l1d_[sizeIndex(size)].get();
    slot.gen = l0_gen_;
    slot.pcid = pcid;
    slot.shift = static_cast<std::uint8_t>(pageShift(size));
    slot.owner_kind = static_cast<std::uint8_t>(kind);
    slot.is_ifetch = ifetch;
    // A huge-page hit replays misses of the structures probed first;
    // those replays die with the generation on the next data fill.
    slot.gen_sensitive = kind > 1;
}

Attempt
PipelineBackend::attempt(const Requester &req, Addr va, AccessType type,
                         Cycles now, WalkSource &src, Translation &out)
{
    const bool is_write = type == AccessType::Write;

    // ---- L0 fast path: a direct-mapped memo of the last slow-path L1
    // hit for this {page, PCID, kind}. A hit re-validates the live TLB
    // entry and replays the bypassed probe sequence's exact side
    // effects, so stats and traces are byte-identical either way.
    // Faulting accesses always fall through to the slow path.
    if (l0_enabled_) {
        const bool ifetch = isIfetch(type);
        L0Entry &slot = l0_[l0Index(va >> 12, req.pcid, ifetch)];
        if (slot.vpn4k == (va >> 12) && slot.pcid == req.pcid &&
            slot.is_ifetch == ifetch &&
            (!slot.gen_sensitive || slot.gen == l0_gen_)) {
            tlb::TlbEntry *e = slot.entry;
            // Live re-validation: fills never duplicate a {VPN, PCID}
            // in a conventional structure (a stale match is shot down
            // before the refill), so a live identity match means this
            // entry is exactly what lookupL1 would return — with its
            // current ppn/cow/O-PC payload, re-read below.
            if (e->valid && e->pcid == slot.pcid &&
                e->vpn == (va >> slot.shift) && !(is_write && e->cow)) {
                for (unsigned k = 1; k < slot.owner_kind; ++k)
                    l1d_[k - 1]->recordL0Miss();
                const bool shared = e->fill_pcid != slot.pcid;
                slot.owner->recordL0Hit(e, shared);
                ++st_.l1_hits;
                out.cycles += 1;
                if (tracer_) {
                    tlb::TlbLookup lk;
                    lk.entry = e;
                    lk.shared_hit = shared;
                    tracer_->record(
                        core_id_, trace::EventType::TlbL1Hit,
                        now + out.cycles, req.ccid, req.pid, va,
                        trace::packAttempt(req.pcid,
                                           src.processBit(req, va)),
                        hitFlags(type, lk));
                }
                resolve(out, *e, va);
                return {};
            }
        }
    }

    const int process_bit = src.processBit(req, va);
    const std::uint64_t packed = trace::packAttempt(req.pcid, process_bit);
    PageSize size = PageSize::Size4K;

    // ---- L1 TLB: 1 cycle.
    tlb::TlbLookup l1 = lookupL1(req, va, type, process_bit, size);
    out.cycles += 1;
    if (l1.hit()) {
        const tlb::TlbEntry &entry = *l1.entry;
        if (is_write && entry.cow) {
            // Write to a CoW page: declared as a CoW page fault (Fig. 8,
            // step 6). No hit is counted and no L1 state beyond the
            // probe changes; the flagCowFault event lets replay tell
            // this apart from a counted hit.
            if (tracer_)
                tracer_->record(
                    core_id_, trace::EventType::TlbL1Hit,
                    now + out.cycles, req.ccid, req.pid, va, packed,
                    static_cast<std::uint8_t>(hitFlags(type, l1) |
                                              trace::flagCowFault));
            return {Attempt::Kind::CowFault, entry.size};
        }
        ++st_.l1_hits;
        installL0(va, req.pcid, type, size, l1.entry);
        if (tracer_)
            tracer_->record(core_id_, trace::EventType::TlbL1Hit,
                            now + out.cycles, req.ccid, req.pid, va,
                            packed, hitFlags(type, l1));
        resolve(out, entry, va);
        return {};
    }
    ++st_.l1_misses;

    // ---- ASLR-HW transform between L1 and L2 (paper §IV-D).
    if (params_.babelfish && params_.aslr == vm::AslrMode::Hw)
        out.cycles += params_.aslr_transform_cycles;

    // ---- L2 TLB: 10 cycles, 12 when the PC bitmask is consulted.
    tlb::TlbLookup l2 = lookupL2(req, va, process_bit, size);
    const bool long_access =
        l2.bitmask_checked || (params_.force_long_l2 && params_.babelfish);
    out.cycles += params_.l2_4k.access_cycles +
                  (long_access ? params_.l2_4k.bitmask_extra_cycles : 0);
    if (long_access)
        ++st_.l2_long_accesses;

    if (l2.hit()) {
        const tlb::TlbEntry &entry = *l2.entry;
        if (isIfetch(type)) {
            ++st_.l2_instr_hits;
            if (l2.shared_hit)
                ++st_.l2_instr_shared_hits;
        } else {
            ++st_.l2_data_hits;
            if (l2.shared_hit)
                ++st_.l2_data_shared_hits;
        }
        const bool cow_fault = is_write && entry.cow;
        if (tracer_) {
            std::uint8_t flags = hitFlags(type, l2);
            if (long_access)
                flags |= trace::flagLongL2;
            if (cow_fault)
                flags |= trace::flagCowFault;
            tracer_->record(core_id_, trace::EventType::TlbL2Hit,
                            now + out.cycles, req.ccid, req.pid, va,
                            packed, flags);
        }
        if (cow_fault)
            return {Attempt::Kind::CowFault, entry.size};
        fillL1(entry, req, type);
        resolve(out, entry, va);
        return {};
    }
    if (isIfetch(type))
        ++st_.l2_instr_misses;
    else
        ++st_.l2_data_misses;
    if (tracer_) {
        std::uint8_t flags = hitFlags(type, tlb::TlbLookup{});
        if (long_access)
            flags |= trace::flagLongL2;
        tracer_->record(core_id_, trace::EventType::TlbMiss,
                        now + out.cycles, req.ccid, req.pid, va, packed,
                        flags);
    }

    // ---- Backend backfill probe (e.g. Victima's backing store): a
    // last chance to recover the translation without walking; else the
    // page walk.
    tlb::TlbEntry fill;
    Cycles probe_cycles = 0;
    if (backfill(req, va, type, process_bit, src, now + out.cycles,
                 probe_cycles, fill)) {
        out.cycles += probe_cycles;
    } else {
        const tlb::WalkResult walk =
            src.walk(req, va, type, now + out.cycles);
        out.cycles += walk.cycles;
        if (walk.status != tlb::WalkStatus::Ok) {
            bf_assert(walk.status != tlb::WalkStatus::Protection,
                      "protection fault on walk: va=", va,
                      " pid=", req.pid);
            return {Attempt::Kind::WalkFault, PageSize::Size4K};
        }
        fill = walk.fill;
    }

    st_.miss_latency.sample(out.cycles);
    if (tracer_) {
        // Recorded before the fills so replay sees the entry's
        // attributes exactly as they go into the TLBs.
        tracer_->record(
            core_id_, trace::EventType::TlbFill, now + out.cycles,
            req.ccid, req.pid, va,
            trace::packFill(req.pcid, static_cast<unsigned>(fill.size),
                            fill.owned, fill.orpc, fill.cow,
                            fill.pc_bitmask),
            fillFlags(type));
    }
    fillL2(fill, req, src);
    fillL1(fill, req, type);
    resolve(out, fill, va);
    return {};
}

void
PipelineBackend::applyInvalidate(const vm::TlbInvalidate &inv)
{
    // Conservative: live-entry re-validation already catches every
    // shot-down slot, but shootdowns are rare enough that retiring the
    // whole L0 generation costs nothing and keeps the argument simple.
    ++l0_gen_;
    // Every structure applies the same reach rule (tlb::shotDownBy). The
    // per-process L1 copies of shared fills keep owned=false, so a
    // shared-range drop removes them on every core too (conservative,
    // like a remote shootdown IPI).
    l1i_4k_->invalidate(inv);
    for (auto &tlb : l1d_)
        tlb->invalidate(inv);
    for (auto &tlb : l2_)
        tlb->invalidate(inv);
    if (inv.kind == vm::TlbInvalidate::Kind::Pcid)
        pwc_->invalidateAll();
    invalidateExtra(inv);
}

void
PipelineBackend::flushAll()
{
    l1i_4k_->invalidateAll();
    for (auto &tlb : l1d_)
        tlb->invalidateAll();
    for (auto &tlb : l2_)
        tlb->invalidateAll();
    pwc_->invalidateAll();
    ++l0_gen_;
    l0_.fill(L0Entry{});
    flushExtra();
}

template <class Ar, class Self>
void
PipelineBackend::io(Ar &ar, Self &self)
{
    ar.part(*self.l1i_4k_);
    for (auto &tlb : self.l1d_)
        ar.part(*tlb);
    for (auto &tlb : self.l2_)
        ar.part(*tlb);
    ar.part(*self.pwc_);
    self.extraIo(ar);
}

void
PipelineBackend::save(snap::ArchiveWriter &ar) const
{
    io(ar, *this);
}

void
PipelineBackend::restore(snap::ArchiveReader &ar)
{
    io(ar, *this);
    // Drop the L0 front cache: it re-warms on first use and replays
    // with no stat side effects, so resuming cold is invisible to stats.
    ++l0_gen_;
    l0_.fill(L0Entry{});
}

} // namespace bf::translate
