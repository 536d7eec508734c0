/**
 * @file
 * The translation pipeline (DESIGN.md §16): one core's translation-
 * caching structures — the L0 front cache, the L1 I/D TLBs, the unified
 * L2 TLB, the ASLR-HW transform between them and the page-walk cache —
 * and the pass that runs them.
 *
 * One call, attempt(), runs one pass for one requester — L0/L1 → ASLR →
 * L2 (plus any competitor probe) → backfill → walk → fill — and reports
 * a hit or the fault that stopped it. What sits around the pipeline is
 * the caller's:
 *
 *  - the WalkSource answers the page walk and the cache-line traffic of
 *    backends that park translations in the data caches. core::Mmu
 *    plugs in the live PageWalker and CacheHierarchy; the replay engine
 *    (DESIGN.md §13) plugs in recorded and synthesized walks, so both
 *    run the same pipeline code;
 *  - core::Mmu owns the retry loop: it defers a fault to the bound-phase
 *    epoch log or services it through the kernel, then retries.
 *
 * The competitor backends (Victima, Coalesced) subclass PipelineBackend
 * and plug into the protected hook points: the L2 lookup/fill paths, a
 * backfill probe between the L2 miss and the page walk, and the
 * invalidate / flush / checkpoint extension hooks. The reference
 * implementation of every hook is a no-op or the plain pipeline
 * behavior. createBackend() builds the class MmuParams::backend names.
 *
 * Contract, for the reference backend and every subclass:
 *  - attempt() books its access-level statistics into the
 *    TranslateStats the owner registered. The stats-tree shape is part
 *    of the contract: the reference backend's tree is the golden one.
 *  - applyInvalidate() reaches *every* translation-caching structure —
 *    including competitor-specific ones like the Victima backing store
 *    or coalesced range entries (invalidateExtra) — so kernel
 *    shootdowns keep all backends architecturally coherent.
 *  - save()/restore() round-trip all backend state byte-identically.
 *  - Bound-phase discipline: a backend never calls the kernel, and all
 *    cache-hierarchy traffic goes through the WalkSource, whose live
 *    implementation defers shared-level state to the weave. This is
 *    what keeps every backend byte-identical at any BF_WORKERS.
 */

#ifndef BF_TRANSLATE_PIPELINE_HH
#define BF_TRANSLATE_PIPELINE_HH

#include <array>
#include <memory>

#include "common/stats.hh"
#include "common/trace/trace.hh"
#include "core/params.hh"
#include "tlb/page_walk_cache.hh"
#include "tlb/tlb.hh"
#include "translate/backend.hh"
#include "translate/stats.hh"
#include "vm/tlb_hooks.hh"

namespace bf::attrib
{
class CoreSink;
class Registry;
}

namespace bf::translate
{

/** One core's translation pipeline; the reference (BabelFish) backend. */
class PipelineBackend
{
  public:
    /**
     * @param core_id owning core.
     * @param params TLB geometry and BabelFish/ASLR configuration.
     * @param stats the owner's registered access-level counters.
     * @param group the owner's "mmu" stat group; the structure
     *        subgroups register under it.
     */
    PipelineBackend(unsigned core_id, const core::MmuParams &params,
                    TranslateStats &stats, stats::StatGroup &group);
    virtual ~PipelineBackend() = default;
    PipelineBackend(const PipelineBackend &) = delete;
    PipelineBackend &operator=(const PipelineBackend &) = delete;

    /**
     * One pass of the lookup pipeline for @p req at canonical @p va.
     * Adds the pass's latency to @p out.cycles (event timestamps are
     * @p now + out.cycles) and, on a hit, sets out.paddr and out.size.
     * On a fault nothing is filled; the caller resolves the fault and
     * calls again.
     */
    Attempt attempt(const Requester &req, Addr va, AccessType type,
                    Cycles now, WalkSource &src, Translation &out);

    /** Apply a kernel shootdown to every translation-caching structure. */
    void applyInvalidate(const vm::TlbInvalidate &inv);

    /** Attach the run's event tracer (null detaches). */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Attach the per-container attribution registry and this core's
     * private sink (System wires them; nulls detach). With a sink the
     * backend attributes TLB evictions via the owner tags of displaced
     * entries (noteL1Evicted, noteL2Evicted).
     */
    void
    setAttrib(attrib::Registry *registry, attrib::CoreSink *sink)
    {
        areg_ = registry;
        sink_ = sink;
    }

    /** Drop all cached translation state (tests / phase changes). */
    void flushAll();

    /**
     * @{
     * @name Checkpointing
     * Full backend state: the TLB structures, the PWC, and any
     * competitor-specific structures (extraIo), in a fixed order.
     */
    void save(snap::ArchiveWriter &ar) const;
    void restore(snap::ArchiveReader &ar);
    /** @} */

    /**
     * @{
     * @name Structure access
     * Tests, the sampler, the benches and walk sources reach the
     * shared structures through these.
     */
    tlb::Tlb &l1i() { return *l1i_4k_; }
    tlb::Tlb &l1d(PageSize size) { return *l1d_[sizeIndex(size)]; }
    tlb::Tlb &l2(PageSize size) { return *l2_[sizeIndex(size)]; }
    tlb::Pwc &pwc() { return *pwc_; }
    /** @} */

  protected:
    /**
     * @{
     * @name Competitor hook points
     * All default to the plain pipeline behavior.
     */
    /** Probe the L2 structures (Coalesced adds its range probe). */
    virtual tlb::TlbLookup lookupL2(const Requester &req, Addr va,
                                    int process_bit, PageSize &size_out);

    /**
     * Insert a walked/backfilled translation into the L2. @p src
     * carries any memory traffic the fill models.
     */
    virtual void fillL2(const tlb::TlbEntry &entry, const Requester &req,
                        WalkSource &src);

    /**
     * Last-chance probe after an L2 TLB miss, before the page walk
     * (Victima's backing-store lookup). On a hit, write the recovered
     * translation into @p out, add the probe latency to @p cycles and
     * return true — attempt() then fills the TLBs from @p out and
     * skips the walk. The default always misses.
     */
    virtual bool backfill(const Requester &req, Addr va, AccessType type,
                          int process_bit, WalkSource &src, Cycles now,
                          Cycles &cycles, tlb::TlbEntry &out);

    /** Extend a shootdown into competitor structures. */
    virtual void invalidateExtra(const vm::TlbInvalidate &inv);

    /** Extend flushAll into competitor structures. */
    virtual void flushExtra();

    /**
     * Extend the checkpoint with competitor structures. The two
     * overloads let PipelineBackend::io reach them in either direction;
     * an override pair enters one description of its structures.
     */
    virtual void extraIo(snap::ArchiveWriter &ar) const { (void)ar; }
    virtual void extraIo(snap::ArchiveReader &ar) { (void)ar; }
    /** @} */

    /**
     * @{
     * @name Eviction attribution (common/attrib)
     * Book "requester @p req displaced @p evicted" edges; the victim is
     * resolved through the owner tag of the displaced entry. No-ops
     * without a sink. Subclasses with their own fill paths (Victima)
     * call these with the evicted entry their fill reports.
     */
    void noteL1Evicted(const Requester &req,
                       const tlb::TlbEntry &evicted);
    void noteL2Evicted(const Requester &req,
                       const tlb::TlbEntry &evicted);
    /** @} */

    static unsigned sizeIndex(PageSize size)
    {
        return static_cast<unsigned>(size);
    }

    unsigned core_id_;
    core::MmuParams params_;
    TranslateStats &st_;
    stats::StatGroup &group_;

    std::unique_ptr<tlb::Tlb> l1i_4k_;
    std::array<std::unique_ptr<tlb::Tlb>, numPageSizes> l1d_;
    std::array<std::unique_ptr<tlb::Tlb>, numPageSizes> l2_;
    std::unique_ptr<tlb::Pwc> pwc_;
    trace::Tracer *tracer_ = nullptr;
    attrib::Registry *areg_ = nullptr; //!< Victim-slot resolution.
    attrib::CoreSink *sink_ = nullptr; //!< Per-tenant counter sink.

  private:
    template <class Ar, class Self> static void io(Ar &ar, Self &self);

    /**
     * L0 inline translation cache: a small direct-mapped front cache
     * over lookupL1 that short-circuits the common repeated hit. Each
     * slot remembers which live TLB entry answered a {VPN, PCID, kind}
     * lookup; a hit re-validates the entry in place (valid, VPN, PCID)
     * and replays the exact side effects of the bypassed probe
     * sequence — per-structure hit/miss counters, the LRU touch, the
     * +1 cycle, the trace record — so architectural stats stay
     * byte-identical with the cache on or off.
     *
     * Coherence: shootdowns, CoW privatization and eviction all mark
     * or overwrite the referenced TlbEntry, which the live check
     * catches. Entries for huge pages additionally replay the misses
     * of the smaller structures probed before the hit; those replays
     * assume the earlier structures still miss, so such slots carry
     * the generation l0_gen_, bumped on every L1 fill and every
     * shootdown applied to this backend. Only enabled when the L1 uses
     * the conventional (non-CCID-shared) lookup; the BabelFish L1
     * lookup's candidate semantics are left on the slow path.
     * MmuParams::l0_cache turns it off (replay, the equivalence test).
     */
    struct L0Entry
    {
        Vpn vpn4k = ~0ull;            //!< VA >> 12 (slot tag).
        tlb::TlbEntry *entry = nullptr;
        tlb::Tlb *owner = nullptr;
        std::uint64_t gen = 0;
        Pcid pcid = 0;
        std::uint8_t shift = 0;       //!< Page shift of the entry.
        std::uint8_t owner_kind = 0;  //!< 0=l1i, 1+sizeIndex for data.
        bool is_ifetch = false;
        bool gen_sensitive = false;   //!< Huge-page slot: check gen.
    };
    static constexpr std::size_t kL0Size = 256; //!< Power of two.
    std::array<L0Entry, kL0Size> l0_{};
    std::uint64_t l0_gen_ = 1;
    bool l0_enabled_ = false;

    static std::size_t
    l0Index(Vpn vpn4k, Pcid pcid, bool ifetch)
    {
        return (vpn4k ^ (vpn4k >> 14) ^ (static_cast<Vpn>(pcid) << 3) ^
                (ifetch ? 0x55u : 0u)) &
               (kL0Size - 1);
    }

    /** Remember a slow-path L1 hit for the L0 fast path. */
    void installL0(Addr va, Pcid pcid, AccessType type, PageSize size,
                   const tlb::TlbEntry *entry);

    /** Probe the right L1 structures; returns the lookup and size. */
    tlb::TlbLookup lookupL1(const Requester &req, Addr va, AccessType type,
                            int process_bit, PageSize &size_out);

    void fillL1(const tlb::TlbEntry &entry, const Requester &req,
                AccessType type);
};

/**
 * Build the backend selected by @p params.backend: PipelineBackend or
 * the competitor subclass. Arguments as for PipelineBackend.
 */
std::unique_ptr<PipelineBackend> createBackend(unsigned core_id,
                                               const core::MmuParams &params,
                                               TranslateStats &stats,
                                               stats::StatGroup &group);

} // namespace bf::translate

#endif // BF_TRANSLATE_PIPELINE_HH
