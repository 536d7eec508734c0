/**
 * @file
 * The access-level translation counters every backend books, and their
 * one description (DESIGN.md §8, §16, §17). Kept in its own small
 * header so the per-tenant attribution lanes (common/attrib) can derive
 * from the table without pulling in the pipeline.
 */

#ifndef BF_TRANSLATE_STATS_HH
#define BF_TRANSLATE_STATS_HH

#include <concepts>
#include <type_traits>

#include "common/stats.hh"

namespace bf::translate
{

/**
 * The access-level counters every backend books (the owner — core::Mmu
 * or a replayed core — registers them, so their stats-tree names are
 * identical across backends and to the pre-zoo Mmu).
 */
struct TranslateStats
{
    /** @{ @name Pipeline block (PipelineBackend::attempt books these) */
    stats::Scalar l1_hits;
    stats::Scalar l1_misses;
    stats::Scalar l2_data_hits;
    stats::Scalar l2_data_misses;
    stats::Scalar l2_instr_hits;
    stats::Scalar l2_instr_misses;
    stats::Scalar l2_data_shared_hits;
    stats::Scalar l2_instr_shared_hits;
    stats::Scalar l2_long_accesses;   //!< 12-cycle PC-bitmask lookups.
    /** Full translate() latency of accesses that missed both TLB levels. */
    stats::Distribution miss_latency;
    /** @} */

    /** @{ @name Fault block (core::Mmu::serviceFault books these) */
    stats::Scalar minor_faults;
    stats::Scalar major_faults;
    stats::Scalar cow_faults;
    stats::Scalar shared_installs;
    stats::Scalar fault_cycles;
    /** @} */
};

/**
 * The pipeline block of the TranslateStats description: visit(name,
 * stat) for every counter PipelineBackend::attempt books, in member order.
 * Replay services no faults, so its cores register only this block.
 */
template <typename S, typename Visit>
    requires std::same_as<std::remove_const_t<S>, TranslateStats>
constexpr void
forEachPipelineStat(S &s, Visit &&visit)
{
    visit("l1_hits", s.l1_hits);
    visit("l1_misses", s.l1_misses);
    visit("l2_data_hits", s.l2_data_hits);
    visit("l2_data_misses", s.l2_data_misses);
    visit("l2_instr_hits", s.l2_instr_hits);
    visit("l2_instr_misses", s.l2_instr_misses);
    visit("l2_data_shared_hits", s.l2_data_shared_hits);
    visit("l2_instr_shared_hits", s.l2_instr_shared_hits);
    visit("l2_long_accesses", s.l2_long_accesses);
    visit("miss_latency", s.miss_latency);
}

/**
 * The one description of TranslateStats: visit(name, stat) for every
 * counter in member order, by reference (a non-const @p s lets the
 * visitor edit it). The stats-tree names of core::Mmu and of replay's
 * cores and the per-tenant attribution lanes all derive from it.
 */
template <typename S, typename Visit>
    requires std::same_as<std::remove_const_t<S>, TranslateStats>
constexpr void
forEachStat(S &s, Visit &&visit)
{
    forEachPipelineStat(s, visit);
    visit("minor_faults", s.minor_faults);
    visit("major_faults", s.major_faults);
    visit("cow_faults", s.cow_faults);
    visit("shared_installs", s.shared_installs);
    visit("fault_cycles", s.fault_cycles);
}

/**
 * forEachStat over the scalar counters only, in the same order: the
 * leading block of attrib::Counter (per-tenant lanes, counterName,
 * core::Core::readAttribCounters).
 */
template <typename S, typename Visit>
    requires std::same_as<std::remove_const_t<S>, TranslateStats>
constexpr void
forEachScalarStat(S &s, Visit &&visit)
{
    forEachStat(s, [&visit](const char *name, auto &stat) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(stat)>,
                                     stats::Scalar>)
            visit(name, stat);
    });
}

/** How many counters forEachScalarStat visits. */
inline constexpr unsigned kNumScalarStats = [] {
    TranslateStats probe;
    unsigned n = 0;
    forEachScalarStat(probe, [&n](const char *, stats::Scalar &) { ++n; });
    return n;
}();

} // namespace bf::translate

#endif // BF_TRANSLATE_STATS_HH
