/**
 * @file
 * Unit tests for the DRAM timing model (channels / ranks / banks /
 * row-buffer policy).
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"

using namespace bf;
using namespace bf::mem;

namespace
{

DramParams
defaults()
{
    return DramParams{};
}

} // namespace

TEST(Dram, FirstAccessIsRowMiss)
{
    Dram dram(defaults());
    const Cycles lat = dram.access(0, 0, false);
    EXPECT_EQ(dram.row_misses.value(), 1u);
    const DramParams p = defaults();
    EXPECT_EQ(lat, p.t_rcd + p.t_cas + p.t_burst + p.channel_latency);
}

TEST(Dram, RowHitIsFaster)
{
    Dram dram(defaults());
    const DramParams p = defaults();
    dram.access(0, 0, false);
    // Same row, later in time (bank idle again).
    const Cycles lat = dram.access(128, 10000, false);
    EXPECT_EQ(dram.row_hits.value(), 1u);
    EXPECT_EQ(lat, p.t_cas + p.t_burst + p.channel_latency);
}

TEST(Dram, RowConflictIsSlowest)
{
    Dram dram(defaults());
    const DramParams p = defaults();
    dram.access(0, 0, false);
    // Same bank, different row. Row chunks interleave across
    // banks_per_rank * ranks_per_channel = 64 banks, so row chunk 64 maps
    // back to bank 0 of channel 0: chan_line 64*64, line x2 (channels),
    // x64 bytes.
    const Addr same_bank_next_row = 64ull * 64 * 2 * 64;
    const Cycles lat = dram.access(same_bank_next_row, 10000, false);
    EXPECT_EQ(dram.row_conflicts.value(), 1u);
    EXPECT_EQ(lat, p.t_rp + p.t_rcd + p.t_cas + p.t_burst +
                       p.channel_latency);
}

TEST(Dram, AdjacentLinesUseDifferentChannels)
{
    Dram dram(defaults());
    // Two adjacent lines: different channels, both row misses, and no
    // queueing between them.
    const Cycles a = dram.access(0, 0, false);
    const Cycles b = dram.access(64, 0, false);
    EXPECT_EQ(dram.row_misses.value(), 2u);
    EXPECT_EQ(a, b);
}

TEST(Dram, BankQueueingDelaysBackToBack)
{
    Dram dram(defaults());
    const DramParams p = defaults();
    dram.access(0, 0, false);
    // Immediately re-access the same bank and row at time 0: the bank is
    // still busy (ready_at > 0), so queueing delay is added.
    const Cycles lat = dram.access(128, 0, false);
    const Cycles no_queue = p.t_cas + p.t_burst + p.channel_latency;
    EXPECT_GT(lat, no_queue);
}

TEST(Dram, QueueDrainsOverTime)
{
    Dram dram(defaults());
    const DramParams p = defaults();
    dram.access(0, 0, false);
    const Cycles lat = dram.access(128, 1'000'000, false);
    EXPECT_EQ(lat, p.t_cas + p.t_burst + p.channel_latency);
}

TEST(Dram, ReadWriteCounters)
{
    Dram dram(defaults());
    dram.access(0, 0, false);
    dram.access(64, 0, true);
    EXPECT_EQ(dram.reads.value(), 1u);
    EXPECT_EQ(dram.writes.value(), 1u);
}

TEST(Dram, ResetStats)
{
    stats::StatGroup root("root");
    Dram dram(defaults(), &root);
    dram.access(0, 0, false);
    ASSERT_EQ(dram.reads.value(), 1u);
    root.resetTree();
    EXPECT_EQ(dram.reads.value(), 0u);
    EXPECT_EQ(dram.row_misses.value(), 0u);
}
