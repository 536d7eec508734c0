/**
 * @file
 * The per-core MMU: owns the "mmu" stat group, the access-level counters
 * every backend books into, the translation backend that holds the TLB
 * structures (translate::PipelineBackend or the competitor subclass
 * MmuParams::backend selects, DESIGN.md §16), and everything around one
 * backend pass — the live page walker and the cache-line traffic behind
 * it (the live WalkSource), the processBit memo, and the page-fault
 * retry loop with its single defer-or-service site.
 */

#ifndef BF_CORE_MMU_HH
#define BF_CORE_MMU_HH

#include <array>
#include <memory>

#include "common/stats.hh"
#include "common/trace/trace.hh"
#include "common/types.hh"
#include "core/epoch.hh"
#include "core/params.hh"
#include "mem/hierarchy.hh"
#include "tlb/page_walk_cache.hh"
#include "tlb/page_walker.hh"
#include "tlb/tlb.hh"
#include "translate/pipeline.hh"
#include "vm/kernel.hh"
#include "vm/tlb_hooks.hh"

namespace bf::core
{

/** Result of one address translation (see translate::Translation). */
using Translation = translate::Translation;

/**
 * One core's memory-management unit.
 *
 * Inherits TranslateStats so the access-level counters keep their
 * historical homes (`mmu.l1_hits`) while the selected backend books
 * into them by reference; translate::forEachStat registers them.
 * Privately a WalkSource: backend misses walk through the live
 * PageWalker and CacheHierarchy.
 */
class Mmu : public translate::TranslateStats, private translate::WalkSource
{
  public:
    /**
     * @param core_id owning core.
     * @param params TLB geometry and BabelFish/ASLR/backend selection.
     * @param hierarchy cache hierarchy for walks.
     * @param kernel page-table owner / fault handler.
     */
    Mmu(unsigned core_id, const MmuParams &params,
        mem::CacheHierarchy &hierarchy, vm::Kernel &kernel,
        stats::StatGroup *parent = nullptr);

    /**
     * Translate a canonical VA for a process, handling faults: while
     * the epoch log is active a fault is deferred into it and the
     * result is Translation::blocked; otherwise it is serviced and the
     * backend pass retried.
     * @param now the core's current cycle.
     */
    Translation translate(vm::Process &proc, Addr canonical_va,
                          AccessType type, Cycles now);

    /**
     * Service a page fault through the kernel and book its stats: the
     * one fault-handling site, for both the serial retry loop and the
     * deferred faults System services in (ts, core) order. Traces the
     * service at @p ts and, when a declared CoW fault finds the page
     * already resolved (a raced fill), shoots down this core's stale
     * copy. The counters land in the core's open attribution window,
     * which still belongs to the faulting process.
     */
    vm::FaultOutcome serviceFault(const vm::DeferredFault &fault,
                                  Cycles ts);

    /**
     * Apply a kernel shootdown to every structure of this core; a no-op
     * until the core first translates or is restored (container set-up
     * issues hundreds of thousands before any core runs).
     */
    void
    applyInvalidate(const vm::TlbInvalidate &inv)
    {
        if (translated_)
            backend_->applyInvalidate(inv);
    }

    /**
     * Attach the core's bound-phase event log (System wires it). While
     * the log is active, translate() defers page faults into it and
     * returns Translation::blocked instead of calling the kernel.
     */
    void setEpochLog(EpochLog *log) { epoch_log_ = log; }

    /**
     * Attach the run's event tracer (System wires it; null detaches).
     * Also forwards to the backend and the page walker. Tracing never
     * changes stats or timing, only what gets recorded.
     */
    void
    setTracer(trace::Tracer *tracer)
    {
        tracer_ = tracer;
        backend_->setTracer(tracer);
        walker_.setTracer(tracer);
    }

    /**
     * Attach the per-container attribution registry and this core's
     * sink (System wires them; nulls detach). Forwards to the backend,
     * which books only the TLB eviction edges — the scalar mirrors come
     * from the core's window deltas (Core::flushAttribWindow).
     */
    void
    setAttrib(attrib::Registry *registry, attrib::CoreSink *sink)
    {
        backend_->setAttrib(registry, sink);
    }

    /** Drop all cached translation state (tests / phase changes). */
    void flushAll() { backend_->flushAll(); }

    /** The selected translation backend (tests reach its structures). */
    translate::PipelineBackend &backend() { return *backend_; }

    /** @{ @name Structure access for tests and the sampler */
    tlb::Tlb &l1d(PageSize size) { return backend_->l1d(size); }
    tlb::Tlb &l1i() { return backend_->l1i(); }
    tlb::Tlb &l2(PageSize size) { return backend_->l2(size); }
    tlb::Pwc &pwc() { return backend_->pwc(); }
    tlb::PageWalker &walker() { return walker_; }
    /** @} */

    const MmuParams &params() const { return params_; }

    /**
     * @{
     * @name Checkpointing
     * Delegates to the backend: all TLB structures, the PWC, and any
     * backend-specific state.
     */
    void save(snap::ArchiveWriter &ar) const { backend_->save(ar); }
    void restore(snap::ArchiveReader &ar);
    /** @} */

  private:
    /** @{ @name The live WalkSource */
    int processBit(const translate::Requester &req, Addr va) override;
    tlb::WalkResult walk(const translate::Requester &req, Addr va,
                         AccessType type, Cycles now) override;
    Cycles readMetaLine(std::uint64_t line, Cycles now) override;
    void touchMetaLine(std::uint64_t line) override;
    /** @} */

    /** Synthetic paddr of a metadata line, above simulated DRAM. */
    Addr
    metaAddr(std::uint64_t line) const
    {
        return meta_base_ + line * 64;
    }

    unsigned core_id_;
    MmuParams params_;
    mem::CacheHierarchy &hierarchy_;
    vm::Kernel &kernel_;
    stats::StatGroup stat_group_;
    std::unique_ptr<translate::PipelineBackend> backend_;
    /** Registers its "walker" group after the backend's structures. */
    tlb::PageWalker walker_;
    Addr meta_base_;
    /** @{ @name Per-translate state of the live WalkSource */
    vm::Process *walking_ = nullptr;
    static constexpr int kBitUnasked = -2;
    int process_bit_ = kBitUnasked;
    /** @} */
    EpochLog *epoch_log_ = nullptr;
    trace::Tracer *tracer_ = nullptr;
    /**
     * Set by translate() and restore(), the only paths that can put an
     * entry into the backend's TLBs, PWC, L0 or extra store; while it
     * is clear every structure is empty and applyInvalidate() is a
     * no-op (the L0 generation it would bump is not checkpointed).
     */
    bool translated_ = false;

    /**
     * Direct-mapped cache of Kernel::processBit answers keyed by
     * {process, 1 GB region}. A thread's request loop strides across
     * several regions (code, stack, dataset, buffers), so a single
     * entry thrashes — a handful indexed by region ⊕ pid captures the
     * whole working set and turns the per-translate region lookups
     * into one compare. Correctness: the kernel bumps the group's
     * mask_generation counter on every mutation that can change a
     * processBit() answer; each entry stores the counter's address and
     * the value observed at fill, so a bump — or a different process
     * or region, including one from another CCID group — misses and
     * re-queries. Pids are never reused, so a dead process' entry can
     * never match a live one.
     */
    struct PbCache
    {
        const std::uint64_t *gen_ptr = nullptr;
        std::uint64_t gen = 0;
        Pid pid = 0;
        Addr region = ~0ull;
        int bit = -1;
    };
    static constexpr std::size_t kPbCacheSize = 16; //!< Power of two.
    std::array<PbCache, kPbCacheSize> pb_cache_{};

    /** Kernel::processBit through pb_cache_. */
    int cachedProcessBit(const vm::Process &proc, Addr canonical_va);
};

} // namespace bf::core

#endif // BF_CORE_MMU_HH
