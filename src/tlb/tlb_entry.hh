/**
 * @file
 * One TLB entry, carrying both the conventional fields (paper Fig. 1) and
 * the BabelFish extensions (Fig. 3): the CCID tag and the O-PC field
 * (Ownership bit, ORPC bit, 32-bit PrivateCopy bitmask snapshot).
 */

#ifndef BF_TLB_TLB_ENTRY_HH
#define BF_TLB_TLB_ENTRY_HH

#include <cstdint>

#include "common/types.hh"
#include "vm/tlb_hooks.hh"

namespace bf::tlb
{

/** One TLB entry. */
struct TlbEntry
{
    bool valid = false;
    Vpn vpn = 0;
    Ppn ppn = 0;
    PageSize size = PageSize::Size4K;

    /** @{ @name Tags */
    Pcid pcid = 0;
    Ccid ccid = invalidCcid;
    /** @} */

    /** @{ @name Permission flags */
    bool writable = false;
    bool user = true;
    bool no_exec = false;
    bool cow = false;    //!< Write hits declare a CoW page fault (Fig. 8).
    /** @} */

    /**
     * @{
     * @name O-PC field (BabelFish)
     * 'owned' is the Ownership bit: set means the entry is private and a
     * hit additionally requires a PCID match. 'orpc' is the OR of the PC
     * bitmask. 'pc_bitmask' is the snapshot loaded from the MaskPage at
     * fill time; it may go stale, which is safe by construction (paper
     * §III-A): stale-shared translations are identical for reads, and
     * writes always re-fault.
     */
    bool owned = false;
    bool orpc = false;
    std::uint32_t pc_bitmask = 0;
    /** @} */

    /** PCID of the process that filled the entry (shared-hit statistic). */
    Pcid fill_pcid = 0;

    /** LRU timestamp maintained by the Tlb. */
    std::uint64_t lru = 0;
};

/**
 * The one reach rule of a kernel shootdown: true when @p e holds a
 * translation @p inv drops. Every structure that caches TlbEntry copies
 * (the TLBs, Victima's store) applies it, so they are flushed together.
 *  - Page: the (PCID, size, VPN) translation.
 *  - Pcid: every entry of the PCID.
 *  - SharedRange: the CCID's shared (Ownership-clear) entries in the
 *    range (paper §III-A). A range given in 4K VPNs also reaches the
 *    huge entries overlapping it (the mask-overflow region shootdown).
 */
inline bool
shotDownBy(const TlbEntry &e, const vm::TlbInvalidate &inv)
{
    using Kind = vm::TlbInvalidate::Kind;
    if (!e.valid)
        return false;
    switch (inv.kind) {
      case Kind::Page:
        return e.vpn == inv.vpn && e.pcid == inv.pcid && e.size == inv.size;
      case Kind::Pcid:
        return e.pcid == inv.pcid;
      case Kind::SharedRange:
        if (e.owned || e.ccid != inv.ccid)
            return false;
        if (e.size == inv.size)
            return e.vpn >= inv.vpn && e.vpn - inv.vpn < inv.num_pages;
        if (inv.size == PageSize::Size4K) {
            const int shift = pageShift(e.size) - pageShift(inv.size);
            return e.vpn >= inv.vpn >> shift &&
                   e.vpn <= (inv.vpn + inv.num_pages - 1) >> shift;
        }
        return false;
    }
    return false;
}

} // namespace bf::tlb

#endif // BF_TLB_TLB_ENTRY_HH
