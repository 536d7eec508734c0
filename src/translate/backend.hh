/**
 * @file
 * The values that cross the translation pipeline's boundary (DESIGN.md
 * §16): who is translating (Requester), how one pass ended (Attempt),
 * what it produced (Translation), and the WalkSource the caller plugs
 * in for page walks and metadata-line traffic. The pipeline itself is
 * translate::PipelineBackend (translate/pipeline.hh).
 */

#ifndef BF_TRANSLATE_BACKEND_HH
#define BF_TRANSLATE_BACKEND_HH

#include "common/types.hh"
#include "tlb/page_walker.hh"

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

/** How one pass of the pipeline ended (PipelineBackend::attempt). */
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

} // namespace bf::translate

#endif // BF_TRANSLATE_BACKEND_HH
