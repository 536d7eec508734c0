#include "tlb/tlb.hh"

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::tlb
{

const char *
policyName(TlbParams::Policy policy)
{
    switch (policy) {
      case TlbParams::Policy::Lru: return "lru";
      case TlbParams::Policy::Fifo: return "fifo";
      case TlbParams::Policy::Random: return "random";
    }
    return "?";
}

std::uint64_t
Tlb::policySeed() const
{
    // FNV-1a over the structure name: per-structure distinct, but
    // identical across runs and hosts.
    std::uint64_t h = 1469598103934665603ull;
    for (char c : params_.name) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h | 1; // xorshift64 must not start at 0
}

std::uint64_t
Tlb::nextRand()
{
    std::uint64_t x = rng_state_;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rng_state_ = x;
    return x;
}

Tlb::Tlb(const TlbParams &params, stats::StatGroup *parent)
    : params_(params), stat_group_(params.name, parent)
{
    rng_state_ = policySeed();
    if (params_.assoc == 0 || params_.assoc >= params_.entries)
        params_.assoc = params_.entries; // fully associative
    bf_assert(params_.entries % params_.assoc == 0,
              "TLB ", params_.name, ": entries not divisible by assoc");
    num_sets_ = params_.entries / params_.assoc;
    sets_pow2_ = (num_sets_ & (num_sets_ - 1)) == 0;
    set_mask_ = num_sets_ - 1;
    entries_.resize(params_.entries);

    stat_group_.addStat("hits", &hits);
    stat_group_.addStat("misses", &misses);
    stat_group_.addStat("shared_hits", &shared_hits);
    stat_group_.addStat("bitmask_checks", &bitmask_checks);
    stat_group_.addStat("fills", &fills);
    stat_group_.addStat("invalidations", &invalidations);
}

TlbLookup
Tlb::lookupConventional(Vpn vpn, Pcid pcid)
{
    TlbLookup result;
    TlbEntry *base = setBase(vpn);
    const unsigned assoc = params_.assoc;
    for (unsigned way = 0; way < assoc; ++way) {
        TlbEntry &entry = base[way];
        if (entry.vpn != vpn || !entry.valid || entry.pcid != pcid)
            continue;
        if (params_.policy == TlbParams::Policy::Lru)
            entry.lru = ++lru_clock_;
        result.entry = &entry;
        result.shared_hit = entry.fill_pcid != pcid;
        ++hits;
        if (result.shared_hit)
            ++shared_hits;
        return result;
    }
    ++misses;
    return result;
}

TlbLookup
Tlb::lookupBabelFish(Vpn vpn, Ccid ccid, Pcid pcid, int process_bit)
{
    TlbLookup result;
    TlbEntry *base = setBase(vpn);
    TlbEntry *match = nullptr;

    const unsigned assoc = params_.assoc;
    for (unsigned way = 0; way < assoc; ++way) {
        TlbEntry &entry = base[way];
        if (entry.vpn != vpn || !entry.valid || entry.ccid != ccid)
            continue;                                   // step 1 of Fig. 8
        if (entry.owned) {
            if (entry.pcid == pcid) {                   // step 9
                match = &entry;
                break;                                  // owned hit wins
            }
            continue;                                   // step 10 (miss)
        }
        // Shared entry. The ORPC bit short-circuits the bitmask check
        // (Fig. 5(b)): only when it is set do we pay the long access.
        if (entry.orpc) {
            result.bitmask_checked = true;
            if (process_bit >= 0 &&
                (entry.pc_bitmask >> process_bit) & 1u) {
                // The process has its own private copy of this page; the
                // shared translation is not for it (step 3 -> miss).
                continue;
            }
        }
        match = &entry;                                 // step 4 (hit)
        // Keep scanning: an owned entry for this PCID takes precedence
        // (the process may have both after privatizing).
    }

    if (result.bitmask_checked)
        ++bitmask_checks;

    if (match) {
        if (params_.policy == TlbParams::Policy::Lru)
            match->lru = ++lru_clock_;
        result.entry = match;
        result.shared_hit = match->fill_pcid != pcid;
        ++hits;
        if (result.shared_hit)
            ++shared_hits;
        return result;
    }
    ++misses;
    return result;
}

bool
Tlb::fill(const TlbEntry &new_entry, bool shared_dedup,
          TlbEntry *evicted)
{
    bf_assert(new_entry.size == params_.page_size,
              "TLB ", params_.name, ": wrong page size fill");
    TlbEntry *base = setBase(new_entry.vpn);

    // Replace an existing entry with the same tags if present (never
    // duplicate a translation), else an invalid way, else LRU.
    const bool dedup_shared = shared_dedup && !new_entry.owned;
    const unsigned assoc = params_.assoc;
    TlbEntry *victim = nullptr;
    bool same_identity_refill = false;
    for (unsigned way = 0; way < assoc; ++way) {
        TlbEntry &entry = base[way];
        const bool same_identity =
            entry.vpn == new_entry.vpn && entry.valid &&
            entry.ccid == new_entry.ccid &&
            entry.owned == new_entry.owned &&
            (dedup_shared || entry.pcid == new_entry.pcid);
        if (same_identity) {
            victim = &entry;
            same_identity_refill = true;
            break;
        }
    }
    if (!victim) {
        victim = &base[0];
        bool found_invalid = false;
        for (unsigned way = 0; way < assoc; ++way) {
            TlbEntry &entry = base[way];
            if (!entry.valid) {
                victim = &entry;
                found_invalid = true;
                break;
            }
            if (entry.lru < victim->lru)
                victim = &entry;
        }
        // A full set defers to the policy: Lru and Fifo both take the
        // oldest stamp (Fifo never refreshed it on hits), Random picks
        // a deterministic pseudo-random way.
        if (!found_invalid &&
            params_.policy == TlbParams::Policy::Random) {
            victim = &base[nextRand() % params_.assoc];
        }
    }
    bool spilled = false;
    if (!victim->valid) {
        ++valid_count_;
    } else if (!same_identity_refill && evicted) {
        *evicted = *victim;
        spilled = true;
    }
    *victim = new_entry;
    victim->valid = true;
    victim->lru = ++lru_clock_;
    ++fills;
    return spilled;
}

void
Tlb::shootDown(const vm::TlbInvalidate &inv)
{
    // A page shootdown names one VPN, so only its set can hold it; the
    // PCID and range kinds scan the whole structure.
    TlbEntry *first = entries_.data();
    TlbEntry *last = first + entries_.size();
    if (inv.kind == vm::TlbInvalidate::Kind::Page) {
        first = setBase(inv.vpn);
        last = first + params_.assoc;
    }
    for (TlbEntry *entry = first; entry != last; ++entry) {
        if (shotDownBy(*entry, inv)) {
            entry->valid = false;
            --valid_count_;
            ++invalidations;
        }
    }
}

void
Tlb::invalidateAll()
{
    for (auto &entry : entries_)
        entry.valid = false;
    valid_count_ = 0;
}

const TlbEntry *
Tlb::probe(Vpn vpn, Pcid pcid) const
{
    const TlbEntry *base = setBase(vpn);
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].vpn == vpn &&
            base[way].pcid == pcid)
            return &base[way];
    }
    return nullptr;
}

unsigned
Tlb::recountValid() const
{
    unsigned count = 0;
    for (const auto &entry : entries_)
        if (entry.valid)
            ++count;
    return count;
}

unsigned
Tlb::validCount() const
{
#ifndef NDEBUG
    bf_assert(recountValid() == valid_count_,
              "TLB ", params_.name, ": valid_count_ (", valid_count_,
              ") out of sync with scan (", recountValid(), ")");
#endif
    return valid_count_;
}

template <class Ar, class Self>
void
Tlb::io(Ar &ar, Self &self)
{
    const std::string what =
        "TLB '" + self.params_.name + "' checkpoint mismatch: ";
    ar.expect(self.params_.name, what + "name");
    ar.expect(static_cast<std::uint32_t>(self.entries_.size()),
              what + "entry count");
    ar.expect(static_cast<std::uint32_t>(self.params_.assoc),
              what + "associativity");
    ar.expect(static_cast<std::uint8_t>(self.params_.page_size),
              what + "page size");
    ar.expect(static_cast<std::uint8_t>(self.params_.policy),
              what + "replacement policy");

    ar.u64(self.lru_clock_);
    ar.u64(self.rng_state_);
    ar.u32(self.valid_count_);
    unsigned valid = 0;
    for (auto &entry : self.entries_) {
        ar.b(entry.valid);
        ar.u64(entry.vpn);
        ar.u64(entry.ppn);
        ar.u8(entry.size);
        ar.u16(entry.pcid);
        ar.u16(entry.ccid);
        ar.flags(entry.writable, entry.user, entry.no_exec, entry.cow,
                 entry.owned, entry.orpc);
        ar.u32(entry.pc_bitmask);
        ar.u16(entry.fill_pcid);
        ar.u64(entry.lru);
        if constexpr (Ar::loading) {
            // fill() never stores another size; shootdowns match on it.
            if (entry.valid && entry.size != self.params_.page_size)
                throw snap::SnapshotError(
                    what + "valid entry of another page size");
            valid += entry.valid;
        }
    }
    // A shootdown skips a structure whose count reads zero, so a wrong
    // count would let stale translations survive.
    if constexpr (Ar::loading) {
        if (valid != self.valid_count_)
            throw snap::SnapshotError(what + "valid count " +
                                      std::to_string(self.valid_count_) +
                                      " but " + std::to_string(valid) +
                                      " valid entries");
    }
}

void
Tlb::save(snap::ArchiveWriter &ar) const
{
    io(ar, *this);
}

void
Tlb::restore(snap::ArchiveReader &ar)
{
    io(ar, *this);
}

} // namespace bf::tlb
