/**
 * @file
 * Aggregated architecture parameters, defaulting to Table I of the paper.
 */

#ifndef BF_CORE_PARAMS_HH
#define BF_CORE_PARAMS_HH

#include <bit>
#include <concepts>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/snapshot.hh"
#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "tlb/page_walk_cache.hh"
#include "tlb/tlb.hh"
#include "translate/kind.hh"
#include "vm/kernel.hh"

namespace bf::core
{

/** MMU (TLB hierarchy) parameters per core. */
struct MmuParams
{
    // L1 TLBs: 1-cycle access (Table I).
    tlb::TlbParams l1i_4k{ "l1i_tlb4k", 64, 4, PageSize::Size4K, 1, 0 };
    tlb::TlbParams l1d_4k{ "l1d_tlb4k", 64, 4, PageSize::Size4K, 1, 0 };
    tlb::TlbParams l1d_2m{ "l1d_tlb2m", 32, 4, PageSize::Size2M, 1, 0 };
    tlb::TlbParams l1d_1g{ "l1d_tlb1g", 4, 0, PageSize::Size1G, 1, 0 };

    // Unified L2 TLB: 10-cycle access, 12 when the PC bitmask is read.
    tlb::TlbParams l2_4k{ "l2_tlb4k", 1536, 12, PageSize::Size4K, 10, 2 };
    tlb::TlbParams l2_2m{ "l2_tlb2m", 1536, 12, PageSize::Size2M, 10, 2 };
    tlb::TlbParams l2_1g{ "l2_tlb1g", 16, 4, PageSize::Size1G, 10, 2 };

    tlb::PwcParams pwc{};

    bool babelfish = true;            //!< CCID TLB sharing enabled.
    vm::AslrMode aslr = vm::AslrMode::Hw;

    /** ASLR-HW address transformation on an L1 TLB miss (Table I). */
    Cycles aslr_transform_cycles = 2;

    /**
     * Ablation: disable the ORPC short-circuit of Fig. 5(b), making
     * every L2 TLB access pay the long (PC-bitmask) access time.
     */
    bool force_long_l2 = false;

    /**
     * Translation backend (the zoo, DESIGN.md §16). Selects the design
     * built around the structures above; orthogonal to `babelfish`,
     * which selects CCID tagging within whichever backend runs. The
     * BF_BACKEND env knob steers this through the bench runner.
     */
    translate::BackendKind backend = translate::BackendKind::BabelFish;

    /**
     * Host-side execution knob: the L0 inline translation cache in front
     * of the L1 TLBs (DESIGN.md §14). Stats are byte-identical either
     * way, so like SystemParams::workers it is skipped by forEachParam. Off
     * in replay (paramsFromTrace), the L0 equivalence test and the
     * bench_micro L0-disabled case.
     */
    bool l0_cache = true;

    /**
     * L1 TLB entry sharing: only sound under ASLR-SW (same layouts). The
     * paper's default evaluation keeps it off (ASLR-HW).
     */
    bool
    l1Sharing() const
    {
        return babelfish && aslr != vm::AslrMode::Hw;
    }
};

/** Timing-core parameters. */
struct CoreParams
{
    /** Base pipeline cycles charged per instruction (2-issue OoO). */
    double base_cpi = 0.5;
    /** Scheduling quantum (Table I: 10 ms at 2 GHz). */
    Cycles quantum = msToCycles(10);
    /** Direct cost of a context switch (CR3 write; no TLB flush). */
    Cycles context_switch_cycles = 1500;
};

/** Whole-machine parameters. */
struct SystemParams
{
    unsigned num_cores = 8;
    CoreParams core{};
    MmuParams mmu{};
    mem::HierarchyParams mem{};
    vm::KernelParams kernel{};

    /**
     * Lockstep sync-chunk length in cycles: cores run bound phases of
     * this many cycles between weave points (see core/epoch.hh). Must
     * be > 0. Benches override via BF_SYNC_CHUNK.
     */
    Cycles sync_chunk = 20000;

    /**
     * Host worker threads for the chunk's parallel rounds (bound phase,
     * fault resumes, per-peer probe drains beside the weave), clamped
     * to num_cores. Stats are byte-identical at every value — 1 runs
     * the same algorithm inline. Benches override via BF_WORKERS.
     */
    unsigned workers = 1;

    /**
     * @{
     * @name Event tracing (DESIGN.md §12)
     * When trace_path is non-empty the System records every translation-
     * pipeline event into that file (benches wire BF_TRACE). trace_limit
     * caps the records written (BF_TRACE_LIMIT, 0 = unlimited). Tracing
     * never changes stats or timing, so forEachParam skips it.
     */
    std::string trace_path;
    std::uint64_t trace_limit = 0;
    /** @} */

    /** A fully wired Baseline configuration (no BabelFish anywhere). */
    static SystemParams
    baseline()
    {
        SystemParams p;
        p.kernel.babelfish = false;
        p.mmu.babelfish = false;
        return p;
    }

    /** The paper's default BabelFish configuration (ASLR-HW). */
    static SystemParams
    babelfish()
    {
        return SystemParams{};
    }

    /**
     * Page-table fusion only: the kernel shares tables (fewer faults,
     * warm caches for walks) but the TLB stays conventional. The delta
     * between this and full BabelFish isolates the L2 TLB effects of
     * Table II.
     */
    static SystemParams
    pageTableSharingOnly()
    {
        SystemParams p;
        p.kernel.babelfish = true;
        p.mmu.babelfish = false;
        return p;
    }
};

/**
 * A parameter field as a 64-bit fingerprint: integers, enums and bools
 * widened, doubles by bit pattern (so no value goes through decimal).
 */
template <typename T>
std::uint64_t
paramBits(T value)
{
    if constexpr (std::is_floating_point_v<T>)
        return std::bit_cast<std::uint64_t>(static_cast<double>(value));
    else
        return static_cast<std::uint64_t>(value);
}

/**
 * The one description of the configuration: visit(dotted_name, field)
 * for every field that shapes simulated state, e.g.
 * ("mmu.l2_4k.entries", p.mmu.l2_4k.entries), by reference (a non-const
 * @p p lets the visitor edit it). The config hash and the checkpoint
 * manifest derive from it. Host-only fields (workers, mmu.l0_cache,
 * trace_*) and structure names (stat labels) are skipped.
 */
template <typename P, typename Visit>
    requires std::same_as<std::remove_const_t<P>, SystemParams>
void
forEachParam(P &p, Visit &&visit)
{
    const auto tlb = [&](const std::string &at, auto &t) {
        visit(at + ".entries", t.entries);
        visit(at + ".assoc", t.assoc);
        visit(at + ".page_size", t.page_size);
        visit(at + ".access_cycles", t.access_cycles);
        visit(at + ".bitmask_extra_cycles", t.bitmask_extra_cycles);
        visit(at + ".policy", t.policy);
    };
    const auto cache = [&](const std::string &at, auto &c) {
        visit(at + ".size_bytes", c.size_bytes);
        visit(at + ".assoc", c.assoc);
        visit(at + ".line_bytes", c.line_bytes);
        visit(at + ".access_cycles", c.access_cycles);
    };
    auto &k = p.kernel;
    visit("kernel.babelfish", k.babelfish);
    visit("kernel.max_share_level", k.max_share_level);
    visit("kernel.thp", k.thp);
    visit("kernel.max_cow_writers", k.max_cow_writers);
    visit("kernel.aslr", k.aslr);
    visit("kernel.mem_frames", k.mem_frames);
    visit("kernel.minor_fault_cycles", k.minor_fault_cycles);
    visit("kernel.major_fault_cycles", k.major_fault_cycles);
    visit("kernel.cow_fault_cycles", k.cow_fault_cycles);
    visit("kernel.shared_install_cycles", k.shared_install_cycles);
    visit("kernel.fork_base_cycles", k.fork_base_cycles);
    visit("kernel.fork_per_entry_cycles", k.fork_per_entry_cycles);
    visit("kernel.fork_per_table_cycles", k.fork_per_table_cycles);
    visit("kernel.shootdown_cycles", k.shootdown_cycles);

    auto &m = p.mmu;
    tlb("mmu.l1i_4k", m.l1i_4k);
    tlb("mmu.l1d_4k", m.l1d_4k);
    tlb("mmu.l1d_2m", m.l1d_2m);
    tlb("mmu.l1d_1g", m.l1d_1g);
    tlb("mmu.l2_4k", m.l2_4k);
    tlb("mmu.l2_2m", m.l2_2m);
    tlb("mmu.l2_1g", m.l2_1g);
    visit("mmu.pwc.entries_per_level", m.pwc.entries_per_level);
    visit("mmu.pwc.assoc", m.pwc.assoc);
    visit("mmu.pwc.access_cycles", m.pwc.access_cycles);
    visit("mmu.pwc.levels", m.pwc.levels);
    visit("mmu.babelfish", m.babelfish);
    visit("mmu.aslr", m.aslr);
    visit("mmu.aslr_transform_cycles", m.aslr_transform_cycles);
    visit("mmu.force_long_l2", m.force_long_l2);
    visit("mmu.backend", m.backend);

    visit("core.base_cpi", p.core.base_cpi);
    visit("core.quantum", p.core.quantum);
    visit("core.context_switch_cycles", p.core.context_switch_cycles);

    auto &mem = p.mem;
    cache("mem.l1i", mem.l1i);
    cache("mem.l1d", mem.l1d);
    cache("mem.l2", mem.l2);
    cache("mem.l3", mem.l3);
    visit("mem.dram.channels", mem.dram.channels);
    visit("mem.dram.ranks_per_channel", mem.dram.ranks_per_channel);
    visit("mem.dram.banks_per_rank", mem.dram.banks_per_rank);
    visit("mem.dram.row_bytes", mem.dram.row_bytes);
    visit("mem.dram.t_cas", mem.dram.t_cas);
    visit("mem.dram.t_rcd", mem.dram.t_rcd);
    visit("mem.dram.t_rp", mem.dram.t_rp);
    visit("mem.dram.t_burst", mem.dram.t_burst);
    visit("mem.dram.channel_latency", mem.dram.channel_latency);
    visit("mem.model_coherence", mem.model_coherence);

    visit("num_cores", p.num_cores);
    visit("sync_chunk", p.sync_chunk);
}

/**
 * The parameter half of the checkpoint manifest: every forEachParam
 * field by bit pattern. Restore expects each one back and throws
 * snap::SnapshotError naming the first field that differs.
 */
template <class Ar>
void
paramsIo(Ar &ar, const SystemParams &p)
{
    forEachParam(p, [&ar](std::string_view name, const auto &value) {
        ar.expect(paramBits(value), "manifest mismatch: " + std::string(name));
    });
}

inline void
saveParams(snap::ArchiveWriter &ar, const SystemParams &p)
{
    paramsIo(ar, p);
}

inline void
checkParams(snap::ArchiveReader &ar, const SystemParams &p)
{
    paramsIo(ar, p);
}

} // namespace bf::core

#endif // BF_CORE_PARAMS_HH
