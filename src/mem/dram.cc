#include "mem/dram.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::mem
{

namespace
{

/** log2 of a DRAM organization field, which must be a power of two. */
unsigned
log2Exact(std::uint64_t value, const char *field)
{
    bf_assert(std::has_single_bit(value), "DRAM ", field, " = ", value,
              " is not a power of two");
    return static_cast<unsigned>(std::countr_zero(value));
}

} // namespace

Dram::Dram(const DramParams &params, stats::StatGroup *parent)
    : params_(params),
      channel_bits_(log2Exact(params.channels, "channels")),
      rank_bits_(log2Exact(params.ranks_per_channel, "ranks_per_channel")),
      bank_bits_(log2Exact(params.banks_per_rank, "banks_per_rank")),
      row_shift_(channel_bits_ +
                 log2Exact(params.row_bytes / cacheLineBytes /
                               params.channels,
                           "row_bytes / 64 / channels")),
      stat_group_("dram", parent)
{
    banks_.resize(numBanks());
    stat_group_.addStat("reads", &reads);
    stat_group_.addStat("writes", &writes);
    stat_group_.addStat("row_hits", &row_hits);
    stat_group_.addStat("row_misses", &row_misses);
    stat_group_.addStat("row_conflicts", &row_conflicts);
}

unsigned
Dram::numBanks() const
{
    return params_.channels * params_.ranks_per_channel *
           params_.banks_per_rank;
}

unsigned
Dram::decode(Addr paddr, std::uint64_t &row_out) const
{
    // Address mapping: lines interleave across channels; within a
    // channel, consecutive lines fill one row of one bank (so streams get
    // row-buffer hits), and successive row-sized chunks interleave across
    // banks, then ranks, for parallelism. Every field is a power of two
    // (constructor), so each divide and modulo is a shift or a mask.
    const Addr line = lineOf(paddr);
    const unsigned channel =
        static_cast<unsigned>(line & (params_.channels - 1));
    const std::uint64_t row_chunk = line >> row_shift_;
    const unsigned bank =
        static_cast<unsigned>(row_chunk & (params_.banks_per_rank - 1));
    const unsigned rank = static_cast<unsigned>(
        (row_chunk >> bank_bits_) & (params_.ranks_per_channel - 1));
    // row_chunk uniquely identifies the open row within its bank.
    row_out = row_chunk;
    return (((channel << rank_bits_) | rank) << bank_bits_) | bank;
}

Cycles
Dram::access(Addr paddr, Cycles now, bool is_write)
{
    if (is_write)
        ++writes;
    else
        ++reads;

    std::uint64_t row = 0;
    Bank &bank = banks_[decode(paddr, row)];

    const Cycles start = std::max(now, bank.ready_at);
    const Cycles queue = start - now;

    Cycles service = params_.t_cas;
    if (!bank.row_open) {
        ++row_misses;
        service += params_.t_rcd;
    } else if (bank.open_row != row) {
        ++row_conflicts;
        service += params_.t_rp + params_.t_rcd;
    } else {
        ++row_hits;
    }

    bank.row_open = true;
    bank.open_row = row;
    bank.ready_at = start + service + params_.t_burst;

    return queue + service + params_.t_burst + params_.channel_latency;
}

template <class Ar, class Self>
void
Dram::io(Ar &ar, Self &self)
{
    ar.expect(static_cast<std::uint32_t>(self.banks_.size()),
              "DRAM checkpoint bank-count mismatch");
    for (auto &bank : self.banks_) {
        ar.u64(bank.open_row);
        ar.b(bank.row_open);
        ar.u64(bank.ready_at);
    }
}

void
Dram::save(snap::ArchiveWriter &ar) const
{
    io(ar, *this);
}

void
Dram::restore(snap::ArchiveReader &ar)
{
    io(ar, *this);
}

} // namespace bf::mem
