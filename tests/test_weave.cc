/**
 * @file
 * Adversarial determinism tests for the weave machinery (DESIGN.md §15):
 * the ladder merge, the write lane, byte-identity of the concurrent
 * per-peer probe drain against the serial canonical drain, and of the
 * L3/DRAM replay against the immediate path.
 *
 *  - merge fidelity: the k-way ladder reproduces a stable sort by
 *    (ts, core) exactly, including on a log filled exactly to its
 *    pooled capacity;
 *  - write lane: every write the bound path issues (L1 hit, L2 hit or
 *    deferred miss) lands in the issuing core's write lane, and only
 *    while probes are modeled;
 *  - per-peer drain: several peers hold lines that others write (some
 *    written by more than one core, some held by one peer only, some
 *    held by nobody); draining each peer on its own pool worker while
 *    the L3/DRAM replay runs leaves every tag, LRU stamp, dirty bit and
 *    invalidation counter equal to the serial canonical drain's;
 *  - zero-event round: empty streams and lanes leave the hierarchy
 *    untouched;
 *  - replay: logging L2 misses and replaying them lands the immediate
 *    path's L3/DRAM state and stats, and bills its DRAM latency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "common/snapshot.hh"
#include "common/stats_export.hh"
#include "core/epoch.hh"
#include "mem/hierarchy.hh"

using namespace bf;

namespace
{

constexpr unsigned kCores = 4;

/** L3 set stride of the default Table I geometry (8 MiB, 16-way, 64 B
 *  lines -> 8192 sets): addresses one stride apart share a set. */
constexpr Addr kL3SetStride = 64ull * 8192;

/** @{ @name Line pools of the probe-drain test */
constexpr Addr kSharedData = 0x100000;  //!< Read by every core.
constexpr Addr kSharedCode = 0x200000;  //!< Fetched by every core.
constexpr Addr kPrivateData = 0x400000; //!< + core * 0x10000: one core.
constexpr Addr kNowhere = 0x800000;     //!< Held by no core.
constexpr unsigned kPoolLines = 128;
/** @} */

std::unique_ptr<mem::CacheHierarchy>
makeHierarchy(stats::StatGroup *root, unsigned cores = kCores)
{
    return std::make_unique<mem::CacheHierarchy>(mem::HierarchyParams{},
                                                 cores, root);
}

/** Identical direct-path warmup: every core holds the shared data and
 *  code pools in its L1s and L2, plus a private pool of its own, and
 *  the L3 holds lines for the replay to hit and evict. */
void
warm(mem::CacheHierarchy &h)
{
    Cycles now = 0;
    for (unsigned c = 0; c < kCores; ++c) {
        for (unsigned k = 0; k < kPoolLines; ++k) {
            h.access(c, kSharedData + k * 64, AccessType::Read, now += 20);
            h.access(c, kSharedCode + k * 64, AccessType::Ifetch,
                     now += 20);
            h.access(c, kPrivateData + c * 0x10000 + k * 64,
                     AccessType::Read, now += 20);
            h.access(c, 0x4000 + (k % 64) * kL3SetStride,
                     AccessType::Read, now += 20);
        }
    }
}

/** Serialize the full hierarchy state (tags, LRU, dirty bits, DRAM). */
std::vector<std::uint8_t>
stateBytes(const mem::CacheHierarchy &h)
{
    snap::ArchiveWriter ar;
    h.save(ar);
    return ar.payload();
}

/** Every private cache's invalidation counter, core-major (I, D, L2). */
std::vector<std::uint64_t>
invalidations(mem::CacheHierarchy &h)
{
    std::vector<std::uint64_t> out;
    for (unsigned c = 0; c < h.numCores(); ++c) {
        out.push_back(h.l1i(c).invalidations.value());
        out.push_back(h.l1d(c).invalidations.value());
        out.push_back(h.l2(c).invalidations.value());
    }
    return out;
}

/** Reference merge: every event, stable-sorted by (ts, core); the
 *  stable sort keeps each core's append (= seq) order. */
core::WeaveStream
referenceMerge(const std::vector<std::unique_ptr<core::EpochLog>> &logs)
{
    core::WeaveStream out;
    for (const auto &log : logs)
        out.insert(out.end(), log->events().begin(), log->events().end());
    std::stable_sort(out.begin(), out.end(),
                     [](const core::EpochEvent &a,
                        const core::EpochEvent &b) {
                         return std::tie(a.ts, a.core) <
                                std::tie(b.ts, b.core);
                     });
    return out;
}

/** One write of a hand-built chunk, keyed like the historical probe. */
struct Write
{
    Cycles ts;
    unsigned core;
    std::size_t seq;
    Addr paddr;
};

/**
 * Seeded per-core logs with interleaved timestamps, writes, walker
 * events and tenant slots, shaped like the bound path's: a write hit
 * appends to the write lane only, a write miss to both the access lane
 * and the write lane. Each write is also recorded in @p writes (when
 * given) with the timestamp the historical probe event carried.
 * When @p probe_pools is set, writes target the warm() line pools.
 */
std::vector<std::unique_ptr<core::EpochLog>>
makeLogs(std::size_t events_per_core, bool probe_pools = false,
         std::vector<Write> *writes = nullptr)
{
    std::vector<std::unique_ptr<core::EpochLog>> logs;
    std::uint64_t rng = 0x9E3779B97F4A7C15ull;
    for (unsigned c = 0; c < kCores; ++c) {
        auto log = std::make_unique<core::EpochLog>(c);
        Cycles ts = 100 + 7 * c;
        std::size_t seq = 0;
        for (std::size_t i = 0; i < events_per_core; ++i) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            ts += rng % 50; // Zero strides: cross-core ts ties happen.
            log->setSlot(static_cast<int>(rng % 5) - 1);
            Addr paddr = (rng >> 8) % (1ull << 30) & ~Addr{63};
            if (probe_pools) {
                const Addr line = ((rng >> 12) % kPoolLines) * 64;
                static constexpr Addr pools[] = {
                    kSharedData, kSharedCode, kPrivateData, kNowhere};
                paddr = pools[(rng >> 20) & 3] + line;
                if (paddr >= kPrivateData && paddr < kNowhere)
                    paddr += ((rng >> 24) % kCores) * 0x10000;
            }
            const bool write = (rng & 3) == 0;
            const bool hit = (rng & 48) != 0;
            if (!write || !hit) {
                log->appendAccess(ts, paddr,
                                  write ? AccessType::Write
                                        : AccessType::Read,
                                  (rng & 7) == 1);
            }
            if (write) {
                log->appendWrite(paddr);
                if (writes)
                    writes->push_back({ts, c, seq++, paddr});
            }
        }
        logs.push_back(std::move(log));
    }
    return logs;
}

void
attach(mem::CacheHierarchy &h,
       const std::vector<std::unique_ptr<core::EpochLog>> &logs)
{
    for (unsigned c = 0; c < logs.size(); ++c)
        h.setEpochLog(c, logs[c].get());
}

/**
 * The historical weave: replay the canonical access stream, then drain
 * every write's probe in canonical (ts, core, seq) order against all
 * peers, one probe at a time.
 */
void
serialWeave(mem::CacheHierarchy &h,
            const std::vector<std::unique_ptr<core::EpochLog>> &logs,
            std::vector<Write> writes)
{
    core::WeaveStream ws;
    core::mergeEpochLogs(logs, ws);
    mem::CacheHierarchy::WeaveScratch sc;
    sc.reset(kCores);
    h.weaveSerial(ws, sc);
    std::sort(writes.begin(), writes.end(),
              [](const Write &a, const Write &b) {
                  return std::tie(a.ts, a.core, a.seq) <
                         std::tie(b.ts, b.core, b.seq);
              });
    for (const Write &w : writes) {
        for (unsigned p = 0; p < kCores; ++p) {
            if (p == w.core)
                continue;
            h.l1i(p).invalidate(w.paddr);
            h.l1d(p).invalidate(w.paddr);
            h.l2(p).invalidate(w.paddr);
        }
    }
}

/** The System::weave round: replay on item 0, one peer drain per item
 *  after it, on a real pool so the drains race the replay. */
void
pooledWeave(mem::CacheHierarchy &h,
            const std::vector<std::unique_ptr<core::EpochLog>> &logs,
            core::BoundPool &pool)
{
    core::WeaveStream ws;
    mem::CacheHierarchy::WeaveScratch sc;
    sc.reset(kCores);
    attach(h, logs);
    pool.run(1 + kCores, [&](unsigned i) {
        if (i > 0) {
            h.drainProbes(i - 1);
            return;
        }
        core::mergeEpochLogs(logs, ws);
        h.weaveSerial(ws, sc);
    });
}

} // namespace

// ---------------------------------------------------------------------
// Merge fidelity
// ---------------------------------------------------------------------

// The ladder merge is an exact replacement for the comparison sort it
// retired, on logs with cross-core timestamp ties, writes, walker
// events and tenant slots. Write-lane entries never enter the stream.
TEST(WeaveMerge, LadderMatchesReferenceSort)
{
    const auto logs = makeLogs(2000);
    core::WeaveStream ladder;
    core::mergeEpochLogs(logs, ladder);
    EXPECT_EQ(ladder, referenceMerge(logs));

    std::size_t logged = 0, written = 0;
    for (const auto &log : logs) {
        logged += log->events().size();
        written += log->writes().size();
    }
    EXPECT_EQ(ladder.size(), logged);
    EXPECT_GT(written, 0u);
}

// A pooled log filled to exactly its reserved capacity (the boundary
// where one more event would reallocate) merges like any other.
TEST(WeaveMerge, ExactlyFullPooledLog)
{
    auto logs = makeLogs(512);
    // Refill log 0 to exactly its pooled capacity.
    logs[0]->clearEvents();
    EXPECT_TRUE(logs[0]->writes().empty());
    const std::size_t cap = logs[0]->events().capacity();
    ASSERT_GT(cap, 0u);
    for (std::size_t i = 0; i < cap; ++i)
        logs[0]->appendAccess(200 + 3 * i, (i * 64) & ~Addr{63},
                              (i & 1) ? AccessType::Write
                                      : AccessType::Read,
                              false);
    ASSERT_EQ(logs[0]->events().size(), logs[0]->events().capacity());

    core::WeaveStream ladder;
    core::mergeEpochLogs(logs, ladder);
    EXPECT_EQ(ladder, referenceMerge(logs));
}

// One live log among several (the FaaS shape: a 1-core group issues
// every event of the chunk) streams through unchanged, stamped with its
// own core id, not its position among the live logs.
TEST(WeaveMerge, SingleLiveLog)
{
    std::vector<std::unique_ptr<core::EpochLog>> logs;
    for (unsigned c = 0; c < kCores; ++c)
        logs.push_back(std::make_unique<core::EpochLog>(c));
    for (std::size_t i = 0; i < 100; ++i)
        logs[3]->appendAccess(10 + i / 2, i * 64,
                              (i % 3) ? AccessType::Read
                                      : AccessType::Write,
                              false);
    core::WeaveStream ladder;
    core::mergeEpochLogs(logs, ladder);
    EXPECT_EQ(ladder, referenceMerge(logs));
    EXPECT_EQ(ladder.size(), 100u);
    for (const core::EpochEvent &ev : ladder)
        EXPECT_EQ(ev.core, 3u);
}

// The bound path logs every write into the issuing core's write lane —
// L1 write hits, L2 write hits and deferred write misses alike, page
// walker writes included — and nothing else; the access lane holds
// only the L2 misses. With one core no probes are modeled, so the lane
// stays empty.
TEST(WeaveMerge, WriteLaneHoldsEveryWrite)
{
    for (const unsigned cores : {kCores, 1u}) {
        stats::StatGroup root("mem_w");
        auto h = makeHierarchy(&root, cores);
        std::vector<std::unique_ptr<core::EpochLog>> logs;
        for (unsigned c = 0; c < cores; ++c) {
            logs.push_back(std::make_unique<core::EpochLog>(c));
            logs[c]->activate();
        }
        attach(*h, logs);

        std::vector<std::vector<Addr>> want(cores);
        std::vector<std::size_t> misses(cores, 0);
        std::uint64_t rng = 0x2545F4914F6CDD1Dull;
        Cycles now = 0;
        for (unsigned i = 0; i < 20000; ++i) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            const unsigned c = static_cast<unsigned>(rng % cores);
            // A small footprint gives L1 and L2 hits, a large one misses.
            const Addr span = (rng & 64) ? 16 * 1024 : 4 * 1024 * 1024;
            const Addr paddr = ((rng >> 8) % span) & ~Addr{63};
            const unsigned kind = (rng >> 40) % 4;
            const AccessType type = kind == 0   ? AccessType::Write
                                    : kind == 1 ? AccessType::Ifetch
                                                : AccessType::Read;
            const bool walker = ((rng >> 44) & 7) == 0;
            const std::size_t logged = logs[c]->events().size();
            const auto r = h->access(c, paddr, type, now += 5, walker);
            if (logs[c]->events().size() != logged)
                ++misses[c];
            EXPECT_EQ(logs[c]->events().size() != logged,
                      r.served_by == mem::MemLevel::L3);
            if (type == AccessType::Write && cores > 1)
                want[c].push_back(paddr);
        }
        for (unsigned c = 0; c < cores; ++c) {
            EXPECT_EQ(logs[c]->writes(), want[c]) << "core " << c;
            EXPECT_EQ(logs[c]->events().size(), misses[c]) << "core " << c;
            if (cores > 1) {
                EXPECT_GT(logs[c]->writes().size(), 0u);
                EXPECT_GT(misses[c], 0u);
                EXPECT_LT(misses[c], 20000u / cores);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Concurrent per-peer probe drain vs serial canonical drain
// ---------------------------------------------------------------------

// Every peer holds the shared pools and one private pool, and the
// chunk's writes hit lines held by all peers, by one peer only, and by
// nobody, with lines written by several cores. Draining each peer on
// its own pool worker while the L3/DRAM replay runs must land the
// exact state and invalidation counts of the serial drain, which
// probes all peers one write at a time in canonical order.
TEST(WeaveProbes, PerPeerDrainMatchesSerialDrain)
{
    std::vector<Write> writes;
    const auto logs = makeLogs(3000, true, &writes);
    ASSERT_GT(writes.size(), 0u);

    stats::StatGroup root_a("mem_a"), root_b("mem_b");
    auto serial = makeHierarchy(&root_a);
    auto pooled = makeHierarchy(&root_b);
    warm(*serial);
    warm(*pooled);
    ASSERT_EQ(stateBytes(*serial), stateBytes(*pooled));
    const auto inval_before = invalidations(*serial);

    serialWeave(*serial, logs, writes);
    core::BoundPool pool(kCores - 1);
    pooledWeave(*pooled, logs, pool);

    EXPECT_EQ(stateBytes(*serial), stateBytes(*pooled));
    EXPECT_EQ(invalidations(*serial), invalidations(*pooled));
    EXPECT_EQ(serial->l3().misses.value(), pooled->l3().misses.value());
    EXPECT_EQ(serial->dram().reads.value(), pooled->dram().reads.value());

    // Non-vacuous: every peer lost lines at every private level.
    const auto inval_after = invalidations(*pooled);
    for (std::size_t i = 0; i < inval_after.size(); ++i)
        EXPECT_GT(inval_after[i], inval_before[i]) << "counter " << i;

    // Idempotent: a second drain of the same lanes finds nothing left.
    for (unsigned p = 0; p < kCores; ++p)
        pooled->drainProbes(p);
    EXPECT_EQ(invalidations(*serial), invalidations(*pooled));
}

// A round with no shared-level events at all: empty streams and lanes
// leave the hierarchy byte-identical to its pre-weave state (LRU clocks
// included), inline and on the pool.
TEST(WeaveProbes, ZeroEventRoundIsNoOp)
{
    std::vector<std::unique_ptr<core::EpochLog>> empty;
    for (unsigned c = 0; c < kCores; ++c)
        empty.push_back(std::make_unique<core::EpochLog>(c));
    stats::StatGroup root("mem_z");
    auto h = makeHierarchy(&root);
    warm(*h);
    const auto before = stateBytes(*h);
    const auto inval_before = invalidations(*h);

    for (const unsigned workers : {1u, kCores}) {
        core::BoundPool pool(workers - 1);
        pooledWeave(*h, empty, pool);
        EXPECT_EQ(before, stateBytes(*h));
        EXPECT_EQ(inval_before, invalidations(*h));
    }
}

// ---------------------------------------------------------------------
// Weave replay vs the immediate path
// ---------------------------------------------------------------------

// One L2-miss sequence, served once by the immediate access() path and
// once logged and replayed by weaveSerial(), lands the same L3/DRAM
// state and stats, and the DRAM excess the weave bills each core and
// tenant is exactly the extra latency the immediate path charged. A
// small L3 makes the sequence hit, miss, evict, and meet open, closed
// and conflicting DRAM rows. Coherence is off so both runs' private
// caches see the same accesses, and now strides wider than the
// walker's skipped L1 time, so the canonical order is the issue order.
TEST(WeaveReplay, MatchesImmediatePath)
{
    mem::HierarchyParams params;
    params.l1i.size_bytes = params.l1d.size_bytes = 4 * 1024;
    params.l2.size_bytes = 32 * 1024;
    params.l3.size_bytes = 256 * 1024;
    params.model_coherence = false;
    constexpr unsigned kSlots = 3;

    stats::StatGroup root_a("mem"), root_b("mem");
    mem::CacheHierarchy immediate(params, kCores, &root_a);
    mem::CacheHierarchy logged(params, kCores, &root_b);
    std::vector<std::unique_ptr<core::EpochLog>> logs;
    for (unsigned c = 0; c < kCores; ++c) {
        logs.push_back(std::make_unique<core::EpochLog>(c));
        logs[c]->activate();
    }
    attach(logged, logs);

    mem::CacheHierarchy::WeaveScratch want;
    want.reset(kCores, kSlots);
    std::uint64_t rng = 0xD1B54A32D192ED03ull;
    Cycles now = 0;
    for (unsigned i = 0; i < 40000; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const unsigned c = static_cast<unsigned>(rng % kCores);
        // A hot 64 KiB region among a 1 MiB footprint.
        const Addr span = (rng & 256) ? 64 * 1024 : 1024 * 1024;
        const Addr paddr = ((rng >> 8) % span) & ~Addr{63};
        const unsigned kind = (rng >> 40) % 4;
        const AccessType type = kind == 0   ? AccessType::Write
                                : kind == 1 ? AccessType::Ifetch
                                            : AccessType::Read;
        const bool walker = ((rng >> 44) & 7) == 0;
        const int slot = static_cast<int>((rng >> 48) % (kSlots + 1)) - 1;
        logs[c]->setSlot(slot);
        now += 5;

        const auto a = immediate.access(c, paddr, type, now, walker);
        const auto b = logged.access(c, paddr, type, now, walker);
        ASSERT_LE(b.latency, a.latency) << "access " << i;
        const Cycles extra = a.latency - b.latency;
        if (walker) {
            want.walk_extra[c] += extra;
            if (slot >= 0)
                want.slot_walk_extra[slot] += extra;
        } else {
            want.data_extra[c] += extra;
            if (slot >= 0)
                want.slot_data_extra[slot] += extra;
        }
    }

    core::WeaveStream ws;
    core::mergeEpochLogs(logs, ws);
    mem::CacheHierarchy::WeaveScratch got;
    got.reset(kCores, kSlots);
    logged.weaveSerial(ws, got);

    EXPECT_EQ(stateBytes(immediate), stateBytes(logged));
    EXPECT_EQ(stats::toJsonString(root_a), stats::toJsonString(root_b));
    EXPECT_EQ(got.data_extra, want.data_extra);
    EXPECT_EQ(got.walk_extra, want.walk_extra);
    EXPECT_EQ(got.slot_data_extra, want.slot_data_extra);
    EXPECT_EQ(got.slot_walk_extra, want.slot_walk_extra);

    // Non-vacuous: the replay saw every outcome it must reproduce.
    mem::Cache &l3 = logged.l3();
    mem::Dram &dram = logged.dram();
    EXPECT_GT(l3.hits.value(), 0u);
    EXPECT_GT(l3.evictions.value(), 0u);
    EXPECT_GT(dram.writes.value(), 0u);
    EXPECT_GT(dram.row_hits.value(), 0u);
    EXPECT_GT(dram.row_misses.value(), 0u);
    EXPECT_GT(dram.row_conflicts.value(), 0u);
    for (unsigned c = 0; c < kCores; ++c) {
        EXPECT_GT(got.data_extra[c], 0u) << "core " << c;
        EXPECT_GT(got.walk_extra[c], 0u) << "core " << c;
    }
}
