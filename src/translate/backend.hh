/**
 * @file
 * The translation-backend interface (DESIGN.md §16).
 *
 * A Backend owns a core's translation-caching structures: the TLBs, the
 * page-walk cache and whatever extra reach mechanism the design adds.
 * One call, attempt(), runs one pass of the lookup pipeline for one
 * requester — L0/L1 → ASLR → L2 (plus any competitor probe) → backfill
 * → walk → fill — and reports a hit or the fault that stopped it. What
 * sits around the pipeline is the caller's:
 *
 *  - the WalkSource answers the page walk and the cache-line traffic of
 *    backends that park translations in the data caches. core::Mmu
 *    plugs in the live PageWalker and CacheHierarchy; the replay engine
 *    (DESIGN.md §13) plugs in recorded and synthesized walks, so both
 *    run the same pipeline code;
 *  - core::Mmu owns the retry loop: it defers a fault to the bound-phase
 *    epoch log or services it through the kernel, then retries.
 *
 * Contract highlights:
 *  - attempt() books its access-level statistics into the
 *    TranslateStats the owner registered (the stats-tree shape is part
 *    of the contract: the reference backend's tree is byte-identical to
 *    the pre-interface Mmu, which the golden gate enforces).
 *  - applyInvalidate() must reach *every* translation-caching structure
 *    the backend owns — including competitor-specific ones like the
 *    Victima backing store or coalesced range entries — so kernel
 *    shootdowns keep all backends architecturally coherent.
 *  - save()/restore() round-trip all backend state byte-identically.
 *  - Bound-phase discipline: a backend never calls the kernel, and all
 *    cache-hierarchy traffic goes through the WalkSource, whose live
 *    implementation defers shared-level state to the weave. This is
 *    what keeps every backend byte-identical at any BF_WORKERS.
 */

#ifndef BF_TRANSLATE_BACKEND_HH
#define BF_TRANSLATE_BACKEND_HH

#include <memory>

#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/page_walker.hh"
#include "translate/stats.hh"
#include "vm/tlb_hooks.hh"

namespace bf::attrib
{
class CoreSink;
class Registry;
}

namespace bf::core
{
struct MmuParams;
}

namespace bf::tlb
{
class Tlb;
class Pwc;
}

namespace bf::trace
{
class Tracer;
}

namespace bf::translate
{

/** Result of one address translation. */
struct Translation
{
    Cycles cycles = 0;     //!< Total translation latency incl. faults.
    Addr paddr = 0;        //!< Physical address of the access.
    PageSize size = PageSize::Size4K;
    bool faulted = false;  //!< Any page fault was taken.
    /**
     * Bound phase only: the translation hit a page fault, which was
     * deferred to the core's epoch log instead of being handled. cycles
     * holds the probe time spent up to the fault; paddr is invalid. The
     * core suspends and re-issues after the fault is serviced.
     */
    bool blocked = false;
};

/**
 * Who is translating: the identity the structures tag entries with and
 * match on, plus the attribution slot eviction edges are booked to.
 * The O-PC process bit also depends on the page's region, so it comes
 * from WalkSource::processBit.
 */
struct Requester
{
    Pcid pcid = 0;
    Ccid ccid = 0;
    Pid pid = 0;
    int slot = 0; //!< Attribution slot (common/attrib).
};

/** How one pass of the pipeline ended (Backend::attempt). */
struct Attempt
{
    enum class Kind : std::uint8_t
    {
        Hit,       //!< Translated; Translation::paddr/size are valid.
        CowFault,  //!< A write hit a CoW-marked TLB entry.
        WalkFault, //!< The walk found no usable leaf.
    };
    Kind kind = Kind::Hit;
    /** CowFault: page size of the stale CoW-marked entry. */
    PageSize size = PageSize::Size4K;
};

/**
 * What a backend's lookups reach beyond its own structures: the
 * requester's O-PC bit, the page walk and, for backends that park
 * translations in the data caches (Victima), lines of a per-machine
 * metadata region above simulated DRAM. Live simulation answers from
 * the kernel, the PageWalker and the CacheHierarchy; replay from the
 * trace, with recorded or synthesized walks.
 */
class WalkSource
{
  public:
    virtual ~WalkSource() = default;

    /**
     * The PC-bitmask bit @p req owns for @p va's region (paper Fig. 8),
     * or -1. Asked once per pass past the L0 front cache, whose hits
     * need it only for their trace record.
     */
    virtual int processBit(const Requester &req, Addr va) = 0;

    /**
     * Walk the page tables for @p va through the backend's PWC.
     * @param now the core cycle the walk starts at.
     */
    virtual tlb::WalkResult walk(const Requester &req, Addr va,
                                 AccessType type, Cycles now) = 0;

    /** Billed read of metadata line @p line; returns its latency. */
    virtual Cycles readMetaLine(std::uint64_t line, Cycles now) = 0;

    /**
     * Unbilled write touch of metadata line @p line: models its
     * occupancy of the core's private L2 off the critical path.
     */
    virtual void touchMetaLine(std::uint64_t line) = 0;
};

/** One core's translation backend. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /**
     * One pass of the lookup pipeline for @p req at canonical @p va.
     * Adds the pass's latency to @p out.cycles (event timestamps are
     * @p now + out.cycles) and, on a hit, sets out.paddr and out.size.
     * On a fault nothing is filled; the caller resolves the fault and
     * calls again.
     */
    virtual Attempt attempt(const Requester &req, Addr va,
                            AccessType type, Cycles now, WalkSource &src,
                            Translation &out) = 0;

    /**
     * Apply a kernel shootdown. Must reach every structure that caches
     * translations, including backend-specific ones.
     */
    virtual void applyInvalidate(const vm::TlbInvalidate &inv) = 0;

    /** Attach the run's event tracer (null detaches). */
    virtual void setTracer(trace::Tracer *tracer) = 0;

    /**
     * Attach the per-container attribution registry and this core's
     * private sink (System wires them; nulls detach). A backend with a
     * sink books per-tenant counters at the same sites as the
     * TranslateStats it already books — the sum over tenants must
     * equal the global counters bit-for-bit — and attributes TLB
     * evictions via the owner tags of displaced entries. Part of the
     * shared Backend surface so the zoo stays comparable per-tenant;
     * the default keeps attribution off for backends that opt out.
     */
    virtual void setAttrib(attrib::Registry *registry,
                           attrib::CoreSink *sink)
    {
        (void)registry;
        (void)sink;
    }

    /** Drop all cached translation state (tests / phase changes). */
    virtual void flushAll() = 0;

    /**
     * @{
     * @name Checkpointing
     * Full backend state: the TLB structures, the PWC, and any
     * competitor-specific structures, in a fixed order.
     */
    virtual void save(snap::ArchiveWriter &ar) const = 0;
    virtual void restore(snap::ArchiveReader &ar) = 0;
    /** @} */

    /**
     * @{
     * @name Structure access
     * Every backend in the zoo is built around the common TLB/PWC
     * pipeline (the competitors extend it); tests, the sampler, the
     * benches and walk sources reach the shared structures through
     * these.
     */
    virtual tlb::Tlb &l1i() = 0;
    virtual tlb::Tlb &l1d(PageSize size) = 0;
    virtual tlb::Tlb &l2(PageSize size) = 0;
    virtual tlb::Pwc &pwc() = 0;
    /** @} */
};

/**
 * Build the backend selected by @p params.backend (see MmuParams).
 *
 * @param core_id owning core.
 * @param params TLB geometry and BabelFish/ASLR/backend configuration.
 * @param stats the owner's registered access-level counters.
 * @param group the owner's "mmu" stat group; the backend registers
 *        its structure subgroups under it.
 */
std::unique_ptr<Backend> createBackend(unsigned core_id,
                                       const core::MmuParams &params,
                                       TranslateStats &stats,
                                       stats::StatGroup &group);

} // namespace bf::translate

#endif // BF_TRANSLATE_BACKEND_HH
