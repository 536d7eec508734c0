/**
 * @file
 * Adversarial determinism tests for the weave machinery (DESIGN.md §15):
 * the ladder merge, the write lane, and byte-identity of the concurrent
 * per-peer probe drain against the serial canonical drain.
 *
 *  - merge fidelity: the k-way ladder reproduces the reference
 *    (ts, core, seq) comparison sort exactly, including on a log filled
 *    exactly to its pooled capacity;
 *  - write lane: every write the bound path issues (L1 hit, L2 hit or
 *    deferred miss) lands in the issuing core's write lane, and only
 *    while probes are modeled;
 *  - per-peer drain: several peers hold lines that others write (some
 *    written by more than one core, some held by one peer only, some
 *    held by nobody); draining each peer on its own pool worker while
 *    the L3/DRAM replay runs leaves every tag, LRU stamp, dirty bit and
 *    invalidation counter equal to the serial canonical drain's;
 *  - zero-event round: empty streams and lanes leave the hierarchy
 *    untouched.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "common/snapshot.hh"
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

/** Reference merge: the comparison sort the ladder replaced. */
void
referenceMerge(const std::vector<std::unique_ptr<core::EpochLog>> &logs,
               core::WeaveStream &out)
{
    struct Key
    {
        Cycles ts;
        std::uint32_t core;
        std::uint32_t seq;
    };
    std::vector<Key> keys;
    for (unsigned c = 0; c < logs.size(); ++c) {
        for (std::size_t i = 0; i < logs[c]->size(); ++i)
            keys.push_back(
                {logs[c]->ts(i), c, static_cast<std::uint32_t>(i)});
    }
    std::sort(keys.begin(), keys.end(), [](const Key &a, const Key &b) {
        if (a.ts != b.ts)
            return a.ts < b.ts;
        if (a.core != b.core)
            return a.core < b.core;
        return a.seq < b.seq;
    });
    out.clear();
    for (const Key &k : keys) {
        const core::EpochLog &log = *logs[k.core];
        out.ts.push_back(k.ts);
        out.paddr.push_back(log.paddr(k.seq));
        out.core.push_back(static_cast<std::uint8_t>(k.core));
        out.flags.push_back(log.flags(k.seq));
        out.slot.push_back(log.slot(k.seq));
    }
}

void
expectStreamsEqual(const core::WeaveStream &a, const core::WeaveStream &b)
{
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.paddr, b.paddr);
    EXPECT_EQ(a.core, b.core);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.slot, b.slot);
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
        auto log = std::make_unique<core::EpochLog>();
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
    h.weaveSerial(ws, h.l3().lruClock(), sc);
    h.weaveCommit(sc, ws.accesses());
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
    const std::uint64_t lru_base = h.l3().lruClock();
    attach(h, logs);
    pool.run(1 + kCores, [&](unsigned i) {
        if (i > 0) {
            h.drainProbes(i - 1);
            return;
        }
        core::mergeEpochLogs(logs, ws);
        h.weaveSerial(ws, lru_base, sc);
    });
    h.weaveCommit(sc, ws.accesses());
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
    core::WeaveStream ladder, reference;
    core::mergeEpochLogs(logs, ladder);
    referenceMerge(logs, reference);
    expectStreamsEqual(ladder, reference);

    std::size_t logged = 0, written = 0;
    for (const auto &log : logs) {
        logged += log->size();
        written += log->writes().size();
    }
    EXPECT_EQ(ladder.accesses(), logged);
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
    const std::size_t cap = logs[0]->capacity();
    ASSERT_GT(cap, 0u);
    for (std::size_t i = 0; i < cap; ++i)
        logs[0]->appendAccess(200 + 3 * i, (i * 64) & ~Addr{63},
                              (i & 1) ? AccessType::Write
                                      : AccessType::Read,
                              false);
    ASSERT_EQ(logs[0]->size(), logs[0]->capacity());

    core::WeaveStream ladder, reference;
    core::mergeEpochLogs(logs, ladder);
    referenceMerge(logs, reference);
    expectStreamsEqual(ladder, reference);
}

// One live log among several (the FaaS shape: a 1-core group issues
// every event of the chunk) streams through unchanged, stamped with its
// own core id, not its position among the live logs.
TEST(WeaveMerge, SingleLiveLog)
{
    std::vector<std::unique_ptr<core::EpochLog>> logs;
    for (unsigned c = 0; c < kCores; ++c)
        logs.push_back(std::make_unique<core::EpochLog>());
    for (std::size_t i = 0; i < 100; ++i)
        logs[3]->appendAccess(10 + i / 2, i * 64,
                              (i % 3) ? AccessType::Read
                                      : AccessType::Write,
                              false);
    core::WeaveStream ladder, reference;
    core::mergeEpochLogs(logs, ladder);
    referenceMerge(logs, reference);
    expectStreamsEqual(ladder, reference);
    EXPECT_EQ(ladder.accesses(), 100u);
    for (const std::uint8_t core : ladder.core)
        EXPECT_EQ(core, 3u);
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
            logs.push_back(std::make_unique<core::EpochLog>());
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
            const std::size_t logged = logs[c]->size();
            const auto r = h->access(c, paddr, type, now += 5, walker);
            if (logs[c]->size() != logged)
                ++misses[c];
            EXPECT_EQ(logs[c]->size() != logged,
                      r.served_by == mem::MemLevel::L3);
            if (type == AccessType::Write && cores > 1)
                want[c].push_back(paddr);
        }
        for (unsigned c = 0; c < cores; ++c) {
            EXPECT_EQ(logs[c]->writes(), want[c]) << "core " << c;
            EXPECT_EQ(logs[c]->size(), misses[c]) << "core " << c;
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
    EXPECT_EQ(serial->l3().lruClock(), pooled->l3().lruClock());
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
// leave the hierarchy byte-identical to its pre-weave state (and the
// LRU clock unmoved), inline and on the pool.
TEST(WeaveProbes, ZeroEventRoundIsNoOp)
{
    std::vector<std::unique_ptr<core::EpochLog>> empty;
    for (unsigned c = 0; c < kCores; ++c)
        empty.push_back(std::make_unique<core::EpochLog>());
    stats::StatGroup root("mem_z");
    auto h = makeHierarchy(&root);
    warm(*h);
    const auto before = stateBytes(*h);
    const auto inval_before = invalidations(*h);
    const auto clock_before = h->l3().lruClock();

    for (const unsigned workers : {1u, kCores}) {
        core::BoundPool pool(workers - 1);
        pooledWeave(*h, empty, pool);
        EXPECT_EQ(before, stateBytes(*h));
        EXPECT_EQ(inval_before, invalidations(*h));
        EXPECT_EQ(clock_before, h->l3().lruClock());
    }
}
