/**
 * @file
 * The hardware page-table walker.
 *
 * Walks the kernel-maintained x86-64 tables on a TLB miss, issuing one
 * cache-hierarchy request per level (entering at the L2 cache, paper
 * Fig. 7) unless the Page Walk Cache supplies the upper-level entry. On
 * reaching the leaf it assembles the TLB fill, including the BabelFish
 * O-PC information: Ownership and ORPC come from the entry that points to
 * the leaf table, and when ORPC demands it the PC bitmask is fetched from
 * the MaskPage in parallel with the pte_t (paper Appendix).
 */

#ifndef BF_TLB_PAGE_WALKER_HH
#define BF_TLB_PAGE_WALKER_HH

#include "common/stats.hh"
#include "common/trace/trace.hh"
#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "tlb/page_walk_cache.hh"
#include "tlb/tlb_entry.hh"
#include "vm/kernel.hh"

namespace bf::tlb
{

/** How a walk ended. */
enum class WalkStatus : std::uint8_t
{
    Ok,         //!< Translation found; entry template valid.
    NotPresent, //!< Some level had no present entry: page fault.
    CowWrite,   //!< Write to a present CoW page: CoW page fault.
    Protection, //!< Present but the access violates permissions.
};

/** Result of one page walk. */
struct WalkResult
{
    WalkStatus status = WalkStatus::NotPresent;
    Cycles cycles = 0;
    /** TLB fill template (PCID/CCID stamped by the MMU). Valid on Ok. */
    TlbEntry fill{};
};

/** Per-core hardware page walker. */
class PageWalker
{
  public:
    /**
     * @param core_id issuing core (selects private caches).
     * @param hierarchy the cache hierarchy walk requests go through.
     * @param kernel owner of the page tables and MaskPages.
     * @param pwc this core's page walk cache.
     * @param babelfish whether to gather O-PC information.
     */
    PageWalker(unsigned core_id, mem::CacheHierarchy &hierarchy,
               vm::Kernel &kernel, Pwc &pwc, bool babelfish,
               stats::StatGroup *parent = nullptr);

    /**
     * Walk the tables for a canonical VA.
     * @param now the core's current cycle.
     */
    WalkResult walk(vm::Process &proc, Addr canonical_va, AccessType type,
                    Cycles now);

    /** Attach the run's event tracer (the MMU wires it; null detaches). */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /** @{ @name Statistics */
    stats::Scalar walks;
    stats::Scalar walk_cycles;
    stats::Scalar mem_steps;      //!< Walk steps served by the hierarchy.
    stats::Scalar pwc_steps;      //!< Walk steps served by the PWC.
    stats::Scalar mask_fetches;   //!< PC bitmask loads from MaskPages.
    /** Per-walk latency in cycles, across all walk outcomes. */
    stats::Distribution walk_latency;
    /** @} */

  private:
    unsigned core_id_;
    mem::CacheHierarchy &hierarchy_;
    vm::Kernel &kernel_;
    Pwc &pwc_;
    bool babelfish_;
    stats::StatGroup stat_group_;
    trace::Tracer *tracer_ = nullptr;
};

} // namespace bf::tlb

#endif // BF_TLB_PAGE_WALKER_HH
