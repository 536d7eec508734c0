/**
 * @file
 * Header-only functional models of the competitor backends (DESIGN.md
 * §16):
 *
 *  - VictimStore: a direct-mapped store of L2-TLB evictions, the
 *    functional half of a Victima-style design (arxiv 2310.04158) that
 *    parks TLB-reach overflow in the data cache arrays.
 *  - RangeTlb + RunDetector: a CoLT-style coalesced range TLB (arxiv
 *    1908.08774) and the fill-time detector that feeds it.
 *
 * Both are pure containers: no statistics, no latency — the owning
 * backend bills cycles and counts events.
 */

#ifndef BF_TRANSLATE_STRUCTURES_HH
#define BF_TRANSLATE_STRUCTURES_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"
#include "tlb/tlb_entry.hh"
#include "vm/tlb_hooks.hh"

namespace bf::translate
{

/**
 * Direct-mapped store of spilled TLB entries. Conflict misses are part
 * of the model (Victima's cache-resident metadata is direct-mapped by
 * set); shootdowns scan the whole array, which is fine because they are
 * orders of magnitude rarer than probes.
 */
class VictimStore
{
  public:
    /** @param entries slot count, must be a power of two. */
    explicit VictimStore(std::size_t entries = 8192) : slots_(entries) {}

    std::size_t capacity() const { return slots_.size(); }

    /** Slot a {VPN, size} pair maps to (also keys the synthetic paddr). */
    std::size_t
    slotIndex(Vpn vpn, PageSize size) const
    {
        const std::uint64_t h =
            vpn ^ (vpn >> 13) ^
            (static_cast<std::uint64_t>(size) * 0x9e3779b1ull);
        return h & (slots_.size() - 1);
    }

    /** Park an evicted entry, replacing any conflict victim. */
    std::size_t
    insert(const tlb::TlbEntry &entry)
    {
        const std::size_t slot = slotIndex(entry.vpn, entry.size);
        slots_[slot] = entry;
        return slot;
    }

    /**
     * Probe for a translation, mirroring the TLB match rules: owned (or
     * conventional) entries need a PCID match; shared entries need a
     * CCID match and pass the ORPC/process-bit check of paper Fig. 8.
     * @return the entry, or nullptr; @p slot_out gets its slot on a hit.
     */
    const tlb::TlbEntry *
    probe(Vpn vpn, PageSize size, Pcid pcid, Ccid ccid, bool babelfish,
          int process_bit, std::size_t *slot_out = nullptr) const
    {
        const std::size_t slot = slotIndex(vpn, size);
        const tlb::TlbEntry &e = slots_[slot];
        if (!e.valid || e.vpn != vpn || e.size != size)
            return nullptr;
        bool match;
        if (!babelfish || e.owned) {
            match = e.pcid == pcid;
        } else {
            match = e.ccid == ccid &&
                    !(e.orpc && process_bit >= 0 &&
                      (e.pc_bitmask >> process_bit) & 1u);
        }
        if (!match)
            return nullptr;
        if (slot_out)
            *slot_out = slot;
        return &e;
    }

    /** Drop one slot (entry migrated back into the TLB). */
    void erase(std::size_t slot) { slots_[slot].valid = false; }

    /** Apply a kernel shootdown (tlb::shotDownBy, as the TLBs do). */
    void
    invalidate(const vm::TlbInvalidate &inv)
    {
        for (auto &e : slots_)
            if (tlb::shotDownBy(e, inv))
                e.valid = false;
    }

    void
    clear()
    {
        for (auto &e : slots_)
            e.valid = false;
    }

    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const auto &e : slots_)
            n += e.valid;
        return n;
    }

    /** @{ @name Checkpointing (valid slots only, in slot order) */
    void save(snap::ArchiveWriter &ar) const { io(ar, *this); }
    void restore(snap::ArchiveReader &ar) { io(ar, *this); }
    /** @} */

  private:
    std::vector<tlb::TlbEntry> slots_;

    /**
     * Each valid slot travels as {index, entry}; restore empties the
     * store first, and a listed slot is valid with a cold LRU stamp.
     */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.expect(static_cast<std::uint64_t>(self.slots_.size()),
                  "victim-store size mismatch");
        std::vector<std::uint64_t> live;
        for (std::size_t i = 0; i < self.slots_.size(); ++i) {
            if (self.slots_[i].valid)
                live.push_back(i);
        }
        if constexpr (Ar::loading)
            self.clear();
        ar.count64(live);
        for (std::uint64_t &slot : live) {
            ar.u64(slot);
            if (slot >= self.slots_.size())
                throw snap::SnapshotError("victim-store slot out of range");
            auto &e = self.slots_[slot];
            ar.u64(e.vpn);
            ar.u64(e.ppn);
            ar.u8(e.size);
            ar.u32(e.pcid);
            ar.u32(e.ccid);
            ar.b(e.writable);
            ar.b(e.user);
            ar.b(e.no_exec);
            ar.b(e.cow);
            ar.b(e.owned);
            ar.b(e.orpc);
            ar.u32(e.pc_bitmask);
            ar.u32(e.fill_pcid);
            if constexpr (Ar::loading) {
                e.valid = true;
                e.lru = 0;
            }
        }
    }
};

/** One coalesced range: len contiguous 4K VPN→PPN pairs. */
struct RangeEntry
{
    bool valid = false;
    Vpn base_vpn = 0;
    Ppn base_ppn = 0;
    std::uint32_t len = 0;
    Pcid pcid = 0;
    Ccid ccid = invalidCcid;
    std::uint64_t lru = 0;
};

/**
 * Fully-associative LRU range TLB over 4K pages. Entries are private
 * (PCID-tagged): only non-CoW, bitmask-free fills are coalesced, so the
 * O-PC machinery never applies inside a range.
 */
class RangeTlb
{
  public:
    explicit RangeTlb(std::size_t entries = 64) : entries_(entries) {}

    std::size_t capacity() const { return entries_.size(); }

    /**
     * Find the range covering @p vpn for @p pcid, touch its LRU and
     * return it (nullptr on miss). The covered PPN is
     * base_ppn + (vpn - base_vpn).
     */
    const RangeEntry *
    lookup(Vpn vpn, Pcid pcid)
    {
        for (auto &e : entries_) {
            if (e.valid && e.pcid == pcid && vpn >= e.base_vpn &&
                vpn < e.base_vpn + e.len) {
                e.lru = ++lru_clock_;
                return &e;
            }
        }
        return nullptr;
    }

    /**
     * Install or grow a detected run. A range with the same {pcid,
     * base_vpn} is updated in place (the detector re-announces a run as
     * it extends); otherwise the LRU entry is evicted.
     */
    void
    insert(Vpn base_vpn, Ppn base_ppn, std::uint32_t len, Pcid pcid,
           Ccid ccid)
    {
        RangeEntry *victim = nullptr;
        for (auto &e : entries_) {
            if (e.valid && e.pcid == pcid && e.base_vpn == base_vpn) {
                victim = &e;
                break;
            }
        }
        if (!victim) {
            for (auto &e : entries_) {
                if (!e.valid) {
                    victim = &e;
                    break;
                }
            }
        }
        if (!victim) {
            victim = &entries_[0];
            for (auto &e : entries_)
                if (e.lru < victim->lru)
                    victim = &e;
        }
        victim->valid = true;
        victim->base_vpn = base_vpn;
        victim->base_ppn = base_ppn;
        victim->len = len;
        victim->pcid = pcid;
        victim->ccid = ccid;
        victim->lru = ++lru_clock_;
    }

    /**
     * Apply a kernel shootdown. Ranges cache only private 4K leaf
     * translations, but invalidation is conservative: any overlap of
     * the shot-down VPN range — whatever its kind, tag or page size —
     * drops the whole range entry.
     */
    void
    invalidate(const vm::TlbInvalidate &inv)
    {
        using Kind = vm::TlbInvalidate::Kind;
        if (inv.kind == Kind::Pcid) {
            for (auto &e : entries_)
                if (e.valid && e.pcid == inv.pcid)
                    e.valid = false;
            return;
        }
        // Express the shot-down range in 4K VPNs.
        const int shift = pageShift(inv.size) - pageShift(PageSize::Size4K);
        const Vpn first = inv.vpn << shift;
        const Vpn last = ((inv.vpn + inv.num_pages) << shift) - 1;
        for (auto &e : entries_) {
            if (e.valid && e.base_vpn <= last &&
                e.base_vpn + e.len - 1 >= first)
                e.valid = false;
        }
    }

    void
    clear()
    {
        for (auto &e : entries_)
            e.valid = false;
    }

    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const auto &e : entries_)
            n += e.valid;
        return n;
    }

    /** @{ @name Checkpointing (full array, LRU clock included) */
    void save(snap::ArchiveWriter &ar) const { io(ar, *this); }
    void restore(snap::ArchiveReader &ar) { io(ar, *this); }
    /** @} */

  private:
    std::vector<RangeEntry> entries_;
    std::uint64_t lru_clock_ = 0;

    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.expect(static_cast<std::uint64_t>(self.entries_.size()),
                  "range-tlb size mismatch");
        ar.u64(self.lru_clock_);
        for (auto &e : self.entries_) {
            ar.b(e.valid);
            ar.u64(e.base_vpn);
            ar.u64(e.base_ppn);
            ar.u32(e.len);
            ar.u32(e.pcid);
            ar.u32(e.ccid);
            ar.u64(e.lru);
        }
    }
};

/**
 * Fill-time contiguity detector: per-process tracking of the last
 * filled {VPN, PPN}. A fill at {vpn+1, ppn+1} extends the current run;
 * once a run reaches two pages it is announced (and re-announced as it
 * grows, up to the cap) for installation into the RangeTlb. Slots are
 * direct-mapped by PCID — a conflict just resets a run, costing
 * coalescing opportunity, never correctness.
 */
class RunDetector
{
  public:
    static constexpr std::uint32_t kMaxRun = 32;

    struct Run
    {
        Vpn base_vpn = 0;
        Ppn base_ppn = 0;
        std::uint32_t len = 0;
    };

    /**
     * Note one 4K fill. Returns true and sets @p out when the run is
     * worth (re-)installing (length >= 2).
     */
    bool
    note(Pcid pcid, Vpn vpn, Ppn ppn, Run &out)
    {
        Slot &s = slots_[pcid & (kSlots - 1)];
        if (s.live && s.pcid == pcid && vpn == s.last_vpn + 1 &&
            ppn == s.last_ppn + 1 && s.len < kMaxRun) {
            ++s.len;
        } else {
            s.live = true;
            s.pcid = pcid;
            s.base_vpn = vpn;
            s.base_ppn = ppn;
            s.len = 1;
        }
        s.last_vpn = vpn;
        s.last_ppn = ppn;
        if (s.len < 2)
            return false;
        out = {s.base_vpn, s.base_ppn, s.len};
        return true;
    }

    void
    clear()
    {
        for (auto &s : slots_)
            s.live = false;
    }

    /** @{ @name Checkpointing */
    void save(snap::ArchiveWriter &ar) const { io(ar, *this); }
    void restore(snap::ArchiveReader &ar) { io(ar, *this); }
    /** @} */

  private:
    static constexpr std::size_t kSlots = 32; //!< Power of two.

    struct Slot
    {
        bool live = false;
        Pcid pcid = 0;
        Vpn base_vpn = 0;
        Ppn base_ppn = 0;
        Vpn last_vpn = 0;
        Ppn last_ppn = 0;
        std::uint32_t len = 0;
    };
    std::array<Slot, kSlots> slots_{};

    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.expect(static_cast<std::uint64_t>(kSlots),
                  "run-detector size mismatch");
        for (auto &s : self.slots_) {
            ar.b(s.live);
            ar.u32(s.pcid);
            ar.u64(s.base_vpn);
            ar.u64(s.base_ppn);
            ar.u64(s.last_vpn);
            ar.u64(s.last_ppn);
            ar.u32(s.len);
        }
    }
};

} // namespace bf::translate

#endif // BF_TRANSLATE_STRUCTURES_HH
