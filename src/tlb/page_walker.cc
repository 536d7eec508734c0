#include "tlb/page_walker.hh"

#include <algorithm>

#include "common/logging.hh"
#include "vm/page_table.hh"
#include "vm/paging.hh"

namespace bf::tlb
{

PageWalker::PageWalker(unsigned core_id, mem::CacheHierarchy &hierarchy,
                       vm::Kernel &kernel, Pwc &pwc, bool babelfish,
                       stats::StatGroup *parent)
    : core_id_(core_id), hierarchy_(hierarchy), kernel_(kernel), pwc_(pwc),
      babelfish_(babelfish), stat_group_("walker", parent)
{
    stat_group_.addStat("walks", &walks);
    stat_group_.addStat("walk_cycles", &walk_cycles);
    stat_group_.addStat("mem_steps", &mem_steps);
    stat_group_.addStat("pwc_steps", &pwc_steps);
    stat_group_.addStat("mask_fetches", &mask_fetches);
    stat_group_.addStat("walk_latency", &walk_latency);
}

WalkResult
PageWalker::walk(vm::Process &proc, Addr canonical_va, AccessType type,
                 Cycles now)
{
    using namespace vm;

    ++walks;
    WalkResult result;
    const bool is_write = type == AccessType::Write;

    if (tracer_)
        tracer_->record(core_id_, trace::EventType::WalkStart, now,
                        proc.ccid(), proc.pid(), canonical_va);

    // Every exit books the same latency stats (sampled whether or not
    // tracing is on) and stamps the WalkEnd event at the completion time.
    auto finish = [&]() -> WalkResult & {
        walk_cycles += result.cycles;
        walk_latency.sample(result.cycles);
        if (tracer_)
            tracer_->record(core_id_, trace::EventType::WalkEnd,
                            now + result.cycles, proc.ccid(), proc.pid(),
                            canonical_va, result.cycles,
                            static_cast<std::uint8_t>(result.status));
        return result;
    };

    PageTablePage *table = proc.pgd();
    bool upper_owned = false;
    bool upper_orpc = false;
    Cycles leaf_fetch_cycles = 0;

    for (int level = LevelPgd; level >= LevelPte; --level) {
        bf_assert(table->level() == level, "walk level mismatch");
        // Snapshot the entry: group-shared tables are walked by several
        // cores at once during bound phases, and a sibling walker may be
        // ORing A/D bits into this very slot (see Entry::load).
        Entry &slot = table->entryFor(canonical_va);
        const Entry entry = slot.load();
        const Addr entry_paddr = table->entryPaddrFor(canonical_va);

        // Upper levels consult the PWC; the final pte_t never does.
        if (level >= LevelPmd && pwc_.lookup(level, entry_paddr)) {
            result.cycles += pwc_.accessCycles();
            ++pwc_steps;
            if (tracer_)
                tracer_->record(core_id_, trace::EventType::PwcHit,
                                now + result.cycles, proc.ccid(),
                                proc.pid(), canonical_va,
                                trace::packWalkStep(level, entry_paddr));
        } else {
            const auto mem = hierarchy_.access(core_id_, entry_paddr,
                                               AccessType::Read,
                                               now + result.cycles,
                                               /*start_at_l2=*/true);
            result.cycles += mem.latency;
            leaf_fetch_cycles = mem.latency;
            ++mem_steps;
            if (tracer_)
                tracer_->record(core_id_, trace::EventType::WalkStep,
                                now + result.cycles, proc.ccid(),
                                proc.pid(), canonical_va,
                                trace::packWalkStep(level, entry_paddr),
                                static_cast<std::uint8_t>(mem.served_by));
            if (level >= LevelPmd)
                pwc_.fill(level, entry_paddr);
        }

        if (!entry.present()) {
            result.status = WalkStatus::NotPresent;
            return finish();
        }

        const bool is_leaf = level == LevelPte || entry.huge();
        if (!is_leaf) {
            // Remember the O-PC bits of the entry that will point at the
            // leaf table (paper: bits 10 and 9 of pmd_t).
            upper_owned = entry.owned();
            upper_orpc = entry.orpc();
            table = kernel_.tableByFrame(entry.frame());
            bf_assert(table, "walk: dangling table frame");
            continue;
        }

        // Leaf reached: permission checks.
        if (is_write && !entry.writable()) {
            if (entry.cow()) {
                result.status = WalkStatus::CowWrite;
            } else {
                result.status = WalkStatus::Protection;
            }
            return finish();
        }
        if (type == AccessType::Ifetch && entry.noExec()) {
            result.status = WalkStatus::Protection;
            return finish();
        }

        // Hardware A/D update (atomic: idempotent under concurrent walks).
        slot.fetchOr(is_write ? bits::accessed | bits::dirty
                              : bits::accessed);

        const PageSize size = entry.huge()
                                  ? leafPageSize(level)
                                  : PageSize::Size4K;

        result.status = WalkStatus::Ok;
        result.fill.valid = true;
        result.fill.vpn = canonical_va >> pageShift(size);
        result.fill.ppn = entry.frame() >>
                          (pageShift(size) - basePageShift);
        result.fill.size = size;
        result.fill.writable = entry.writable();
        result.fill.no_exec = entry.noExec();
        result.fill.cow = entry.cow();

        if (babelfish_) {
            // For a leaf inside a table, O/ORPC come from the pointer
            // entry above; for a huge leaf they sit on the leaf itself
            // when it lives in a privately owned table.
            const bool owned = level == LevelPte
                                   ? upper_owned
                                   : (upper_owned || entry.owned());
            const bool orpc = upper_orpc;
            result.fill.owned = owned;
            result.fill.orpc = !owned && orpc;
            result.fill.pc_bitmask = 0;
            if (!owned && orpc) {
                // Fetch the PC bitmask from the MaskPage, in parallel
                // with the pte_t request.
                MaskPage *mask = kernel_.maskFor(proc.ccid(),
                                                 canonical_va);
                if (mask) {
                    const unsigned index =
                        tableIndex(canonical_va, table->level() + 1);
                    const auto mem = hierarchy_.access(
                        core_id_, mask->bitmaskPaddr(index),
                        AccessType::Read, now + result.cycles,
                        /*start_at_l2=*/true);
                    // Parallel with the leaf fetch: only the excess
                    // latency is exposed.
                    result.cycles += mem.latency > leaf_fetch_cycles
                                         ? mem.latency - leaf_fetch_cycles
                                         : 0;
                    result.fill.pc_bitmask = mask->bitmask(index);
                    ++mask_fetches;
                }
            }
        }

        return finish();
    }

    bf_panic("page walk fell through all levels");
}

} // namespace bf::tlb
