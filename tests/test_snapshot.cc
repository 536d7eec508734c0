/**
 * @file
 * Checkpoint/restore tests, bottom-up:
 *
 *  - the archive container itself (types, sections, header/CRC
 *    validation, corruption rejection);
 *  - per-component round trips (Tlb, Pwc, Cache, Dram, Kernel, stats
 *    tree): save -> restore into a freshly built twin -> save again
 *    must reproduce the identical payload bytes;
 *  - the headline system property: a run resumed from a checkpoint
 *    taken at any cycle, at any BF_WORKERS, exports the byte-identical
 *    stats and time-series JSON of the uninterrupted run;
 *  - rejection semantics: corrupted/truncated/mismatched checkpoints
 *    return false (cold-start fallback) without touching the system.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/stats_export.hh"
#include "core/system.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "tlb/page_walk_cache.hh"
#include "tlb/tlb.hh"
#include "vm/kernel.hh"
#include "vm/paging.hh"
#include "workloads/apps.hh"

using namespace bf;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

// ---------------------------------------------------------------------
// The archive container
// ---------------------------------------------------------------------

TEST(Archive, ScalarAndSectionRoundTrip)
{
    snap::ArchiveWriter w;
    w.beginSection("OUTR");
    w.u8(0xab);
    w.b(true);
    w.b(false);
    w.u16(0xbeef);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.f64(3.25);
    w.str("hello archive");
    w.beginSection("INNR");
    w.u64(7);
    w.endSection();
    w.endSection();

    snap::ArchiveReader r(w.payload());
    r.enterSection("OUTR");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_EQ(r.str(), "hello archive");
    r.enterSection("INNR");
    EXPECT_EQ(r.u64(), 7u);
    r.exitSection();
    r.exitSection();
    EXPECT_TRUE(r.atEnd());
}

TEST(Archive, SectionMisuseThrows)
{
    snap::ArchiveWriter w;
    w.beginSection("GOOD");
    w.u64(1);
    w.endSection();

    // Wrong expected tag.
    snap::ArchiveReader r1(w.payload());
    EXPECT_THROW(r1.enterSection("EVIL"), snap::SnapshotError);

    // Reading past the innermost section end.
    snap::ArchiveReader r2(w.payload());
    r2.enterSection("GOOD");
    r2.u64();
    EXPECT_THROW(r2.u8(), snap::SnapshotError);

    // Leaving a section with unread bytes.
    snap::ArchiveReader r3(w.payload());
    r3.enterSection("GOOD");
    EXPECT_THROW(r3.exitSection(), snap::SnapshotError);
}

TEST(Archive, FileRoundTrip)
{
    const std::string path = tmpPath("roundtrip.ckpt");
    snap::ArchiveWriter w;
    w.u64(0x1122334455667788ull);
    w.str("persisted");
    ASSERT_TRUE(w.writeFile(path));

    snap::ArchiveReader r = snap::ArchiveReader::fromFile(path);
    EXPECT_EQ(r.u64(), 0x1122334455667788ull);
    EXPECT_EQ(r.str(), "persisted");
    EXPECT_TRUE(r.atEnd());
}

TEST(Archive, RejectsCorruptFiles)
{
    const std::string path = tmpPath("corrupt.ckpt");
    snap::ArchiveWriter w;
    for (int i = 0; i < 64; ++i)
        w.u64(static_cast<std::uint64_t>(i));
    ASSERT_TRUE(w.writeFile(path));
    const std::vector<std::uint8_t> good = slurp(path);
    ASSERT_GT(good.size(), 32u);

    // Missing file.
    EXPECT_THROW(snap::ArchiveReader::fromFile(tmpPath("nope.ckpt")),
                 snap::SnapshotError);

    // Header cut short.
    spit(path, {good.begin(), good.begin() + 10});
    EXPECT_THROW(snap::ArchiveReader::fromFile(path), snap::SnapshotError);

    // Wrong magic.
    auto bad = good;
    bad[0] ^= 0xff;
    spit(path, bad);
    EXPECT_THROW(snap::ArchiveReader::fromFile(path), snap::SnapshotError);

    // Unknown format version (magic intact, version word scrambled).
    bad = good;
    bad[8] ^= 0xff;
    spit(path, bad);
    EXPECT_THROW(snap::ArchiveReader::fromFile(path), snap::SnapshotError);

    // Payload truncated below the declared length.
    spit(path, {good.begin(), good.end() - 16});
    EXPECT_THROW(snap::ArchiveReader::fromFile(path), snap::SnapshotError);

    // A single flipped payload bit fails the CRC.
    bad = good;
    bad[good.size() / 2] ^= 0x01;
    spit(path, bad);
    EXPECT_THROW(snap::ArchiveReader::fromFile(path), snap::SnapshotError);

    // The untouched original still loads.
    spit(path, good);
    EXPECT_NO_THROW(snap::ArchiveReader::fromFile(path));
}

// ---------------------------------------------------------------------
// Per-component round trips: save -> restore into a twin -> save again
// must reproduce the identical payload.
// ---------------------------------------------------------------------

TEST(ComponentSnapshot, TlbRoundTrip)
{
    tlb::TlbParams params;
    params.entries = 16;
    params.assoc = 4;

    tlb::Tlb a(params);
    for (unsigned i = 0; i < 24; ++i) {
        tlb::TlbEntry e;
        e.valid = true;
        e.vpn = 0x1000 + i;
        e.ppn = 0x2000 + i;
        e.pcid = static_cast<Pcid>(1 + i % 3);
        e.ccid = static_cast<Ccid>(7);
        e.writable = i % 2 == 0;
        e.cow = i % 5 == 0;
        e.owned = i % 3 == 0;
        e.orpc = i % 4 == 0;
        e.pc_bitmask = i;
        e.fill_pcid = e.pcid;
        a.fill(e, i % 2 == 0);
    }
    a.lookupConventional(0x1001, 2); // bump the LRU clock

    snap::ArchiveWriter w1;
    a.save(w1);

    tlb::Tlb b(params);
    snap::ArchiveReader r(w1.payload());
    b.restore(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(b.validCount(), a.validCount());

    snap::ArchiveWriter w2;
    b.save(w2);
    EXPECT_EQ(w1.payload(), w2.payload());

    // Geometry mismatch is detected, not silently accepted.
    tlb::TlbParams small = params;
    small.entries = 8;
    tlb::Tlb c(small);
    snap::ArchiveReader r2(w1.payload());
    EXPECT_THROW(c.restore(r2), snap::SnapshotError);
}

TEST(ComponentSnapshot, PwcRoundTrip)
{
    tlb::PwcParams params;
    tlb::Pwc a(params);
    for (unsigned i = 0; i < 40; ++i)
        a.fill(2 + static_cast<int>(i % 3), 0x4000 + 8 * i);
    a.lookup(2, 0x4000);

    snap::ArchiveWriter w1;
    a.save(w1);

    tlb::Pwc b(params);
    snap::ArchiveReader r(w1.payload());
    b.restore(r);
    EXPECT_TRUE(r.atEnd());

    snap::ArchiveWriter w2;
    b.save(w2);
    EXPECT_EQ(w1.payload(), w2.payload());
}

TEST(ComponentSnapshot, CacheRoundTrip)
{
    mem::CacheParams params;
    params.size_bytes = 16 * 1024;
    params.assoc = 4;

    mem::Cache a(params);
    bool evicted_dirty = false;
    for (unsigned i = 0; i < 600; ++i)
        a.accessAndFill(0x10000 + 64 * (i * 7 % 400), i % 3 == 0,
                        evicted_dirty);

    snap::ArchiveWriter w1;
    a.save(w1);

    mem::Cache b(params);
    snap::ArchiveReader r(w1.payload());
    b.restore(r);
    EXPECT_TRUE(r.atEnd());

    snap::ArchiveWriter w2;
    b.save(w2);
    EXPECT_EQ(w1.payload(), w2.payload());

    // Content actually carried over, not just bytes.
    EXPECT_EQ(b.contains(0x10000), a.contains(0x10000));
}

TEST(ComponentSnapshot, DramRoundTrip)
{
    mem::DramParams params;
    mem::Dram a(params);
    for (unsigned i = 0; i < 200; ++i)
        a.access(0x100000 + 4096 * (i * 13 % 97), 100 * i, i % 4 == 0);

    snap::ArchiveWriter w1;
    a.save(w1);

    mem::Dram b(params);
    snap::ArchiveReader r(w1.payload());
    b.restore(r);
    EXPECT_TRUE(r.atEnd());

    snap::ArchiveWriter w2;
    b.save(w2);
    EXPECT_EQ(w1.payload(), w2.payload());
}

TEST(ComponentSnapshot, KernelRoundTrip)
{
    vm::KernelParams params;
    params.mem_frames = 1 << 22;

    // Two identically configured worlds built from the same seed...
    stats::StatGroup sga("system");
    vm::Kernel a(params, &sga);
    auto app_a =
        workloads::buildApp(a, workloads::AppProfile::httpd(), 4, 99);

    stats::StatGroup sgb("system");
    vm::Kernel b(params, &sgb);
    auto app_b =
        workloads::buildApp(b, workloads::AppProfile::httpd(), 4, 99);

    // ...then A diverges: touch dataset pages B never faulted in.
    for (unsigned i = 0; i < 64; ++i) {
        a.handleFault(*app_a.containers[0],
                      workloads::AppInstance::datasetBase() +
                          i * basePageBytes,
                      AccessType::Read);
        a.handleFault(*app_a.containers[1],
                      workloads::AppInstance::datasetBase() +
                          i * basePageBytes,
                      i % 2 ? AccessType::Read : AccessType::Write);
    }

    snap::ArchiveWriter w1;
    a.save(w1);
    snap::ArchiveReader r(w1.payload());
    b.restore(r);
    EXPECT_TRUE(r.atEnd());

    // Byte-faithful: re-serializing the restored kernel reproduces the
    // archive.
    snap::ArchiveWriter w2;
    b.save(w2);
    EXPECT_EQ(w1.payload(), w2.payload());

    // And semantically faithful: the full translation dumps agree.
    for (unsigned c = 0; c < 2; ++c) {
        std::vector<std::tuple<Addr, std::uint64_t, PageSize>> ta, tb;
        a.forEachTranslation(*app_a.containers[c],
                             [&](Addr va, const vm::Entry &leaf,
                                 PageSize size) {
                                 ta.emplace_back(va, leaf.load().raw,
                                                 size);
                             });
        b.forEachTranslation(*app_b.containers[c],
                             [&](Addr va, const vm::Entry &leaf,
                                 PageSize size) {
                                 tb.emplace_back(va, leaf.load().raw,
                                                 size);
                             });
        EXPECT_EQ(ta, tb) << "container " << c;
        EXPECT_EQ(a.countTablePages(*app_a.containers[c]),
                  b.countTablePages(*app_b.containers[c]));
    }
}

TEST(ComponentSnapshot, StatsTreeRoundTrip)
{
    const auto build = [](stats::StatGroup &root, stats::Scalar &s,
                          stats::Average &avg, stats::LatencyTracker &lat,
                          stats::StatGroup &child, stats::Scalar &cs) {
        root.addStat("events", &s);
        root.addStat("occupancy", &avg);
        root.addStat("latency", &lat);
        child.addStat("hits", &cs);
    };

    stats::StatGroup root_a("system");
    stats::StatGroup child_a("core0", &root_a);
    stats::Scalar s_a, cs_a;
    stats::Average avg_a;
    stats::LatencyTracker lat_a;
    build(root_a, s_a, avg_a, lat_a, child_a, cs_a);
    s_a += 17;
    cs_a += 3;
    avg_a.sample(4);
    avg_a.sample(9);
    lat_a.sample(2.5);
    lat_a.sample(1.25);
    lat_a.sample(99.0);

    snap::ArchiveWriter w1;
    root_a.saveStats(w1);

    stats::StatGroup root_b("system");
    stats::StatGroup child_b("core0", &root_b);
    stats::Scalar s_b, cs_b;
    stats::Average avg_b;
    stats::LatencyTracker lat_b;
    build(root_b, s_b, avg_b, lat_b, child_b, cs_b);

    snap::ArchiveReader r(w1.payload());
    root_b.restoreStats(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(s_b.value(), 17u);
    EXPECT_EQ(cs_b.value(), 3u);

    // The exported JSON — what the golden-stats gate compares — is
    // byte-identical, including latency sample order (mean summation
    // order matters for bit-exact doubles).
    EXPECT_EQ(stats::toJsonString(root_a), stats::toJsonString(root_b));

    // A tree with a different shape is rejected.
    stats::StatGroup root_c("system");
    stats::Scalar s_c;
    root_c.addStat("events", &s_c);
    snap::ArchiveReader r2(w1.payload());
    EXPECT_THROW(root_c.restoreStats(r2), snap::SnapshotError);
}

// A corrupt element count inside a CRC-valid archive must be rejected as
// a SnapshotError before anything is sized from it, not escape as
// std::length_error / std::bad_alloc. Offset 59 is the Kernel payload's
// free-list count: the config echo (19 bytes), four id counters (32) and
// the allocator's next frame (8) precede it.
TEST(ComponentSnapshot, HugeCountRejected)
{
    vm::KernelParams params;
    params.mem_frames = 1 << 22;
    stats::StatGroup sga("system");
    vm::Kernel a(params, &sga);
    auto app_a =
        workloads::buildApp(a, workloads::AppProfile::httpd(), 2, 5);
    snap::ArchiveWriter w;
    a.save(w);

    constexpr std::size_t kFreeListCount = 59;
    for (const std::uint64_t count :
         {std::uint64_t{1} << 62, std::uint64_t{1} << 31,
          std::uint64_t{w.payload().size()}}) {
        std::vector<std::uint8_t> bytes = w.payload();
        ASSERT_GT(bytes.size(), kFreeListCount + 8);
        for (unsigned i = 0; i < 8; ++i)
            bytes[kFreeListCount + i] =
                static_cast<std::uint8_t>(count >> (8 * i));

        stats::StatGroup sgb("system");
        vm::Kernel b(params, &sgb);
        auto app_b =
            workloads::buildApp(b, workloads::AppProfile::httpd(), 2, 5);
        snap::ArchiveReader r(std::move(bytes));
        EXPECT_THROW(b.restore(r), snap::SnapshotError) << count;
    }
}

// Restore range-checks the kernel fields that are used as indices: a
// page table's level byte, a process's O-PC mask bit (a shift) and the
// order of its mask regions (Process::bitIn binary-searches them). The
// tests below patch one value of an in-memory payload (the bytes a
// CRC-valid archive would carry) and expect a SnapshotError.
namespace
{

// Two mask bits planted in the first container before the save; the
// region values are distinctive so the test can find them in the bytes.
constexpr Addr kMaskRegionA = 0x5eed00c0000000ull;
constexpr Addr kMaskRegionB = 0x5eed0100000000ull;

/** The HugeCountRejected world: a kernel with two httpd containers. */
struct KernelWorld
{
    vm::KernelParams params = [] {
        vm::KernelParams p;
        p.mem_frames = 1 << 22;
        return p;
    }();
    stats::StatGroup stats{"system"};
    vm::Kernel kernel{params, &stats};
    workloads::AppInstance app =
        workloads::buildApp(kernel, workloads::AppProfile::httpd(), 2, 5);
};

/** The world's kernel payload, with the mask bits planted. */
std::vector<std::uint8_t>
savedKernelPayload(Ppn *pgd_frame)
{
    KernelWorld w;
    vm::Process &proc = *w.app.containers.at(0);
    proc.setBitIn(kMaskRegionA, 5);
    proc.setBitIn(kMaskRegionB, 6);
    *pgd_frame = proc.pgd()->frame();
    snap::ArchiveWriter ar;
    w.kernel.save(ar);
    return ar.payload();
}

/** Offset of the first little-endian @p value in @p bytes (npos if none). */
std::size_t
findLe(const std::vector<std::uint8_t> &bytes, std::uint64_t value)
{
    for (std::size_t at = 0; at + 8 <= bytes.size(); ++at) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= std::uint64_t{bytes[at + i]} << (8 * i);
        if (v == value)
            return at;
    }
    return std::string::npos;
}

void
putLe(std::vector<std::uint8_t> &bytes, std::size_t at,
      std::uint64_t value, unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/** Restore @p bytes into a freshly rebuilt twin; true if rejected. */
bool
restoreRejected(std::vector<std::uint8_t> bytes)
{
    KernelWorld twin;
    snap::ArchiveReader r(std::move(bytes));
    try {
        twin.kernel.restore(r);
    } catch (const snap::SnapshotError &) {
        return true;
    }
    return false;
}

} // namespace

TEST(ComponentSnapshot, PageTableLevelRejected)
{
    Ppn pgd = 0;
    const std::vector<std::uint8_t> saved = savedKernelPayload(&pgd);
    // The table section stores u64 frame, u8 level per table; the PGD's
    // frame first appears there (the process section names it later).
    const std::size_t frame_at = findLe(saved, pgd);
    ASSERT_NE(frame_at, std::string::npos);
    ASSERT_EQ(saved.at(frame_at + 8), vm::LevelPgd);
    EXPECT_FALSE(restoreRejected(saved));
    for (const unsigned level : {0u, vm::LevelPgd + 1u, 255u}) {
        std::vector<std::uint8_t> bytes = saved;
        bytes[frame_at + 8] = static_cast<std::uint8_t>(level);
        EXPECT_TRUE(restoreRejected(std::move(bytes))) << level;
    }
}

TEST(ComponentSnapshot, MaskBitOutOfRangeRejected)
{
    Ppn pgd = 0;
    const std::vector<std::uint8_t> saved = savedKernelPayload(&pgd);
    // Each mask entry is u64 region, u32 bit.
    const std::size_t region_at = findLe(saved, kMaskRegionA);
    ASSERT_NE(region_at, std::string::npos);
    ASSERT_EQ(saved.at(region_at + 8), 5u);
    EXPECT_FALSE(restoreRejected(saved));
    for (const std::uint64_t bit :
         {std::uint64_t{32}, std::uint64_t{0x7fffffff},
          std::uint64_t{0xffffffff}}) {
        std::vector<std::uint8_t> bytes = saved;
        putLe(bytes, region_at + 8, bit, 4);
        EXPECT_TRUE(restoreRejected(std::move(bytes))) << bit;
    }
}

TEST(ComponentSnapshot, MaskRegionsOutOfOrderRejected)
{
    Ppn pgd = 0;
    const std::vector<std::uint8_t> saved = savedKernelPayload(&pgd);
    const std::size_t b_at = findLe(saved, kMaskRegionB);
    ASSERT_NE(b_at, std::string::npos);
    ASSERT_EQ(b_at, findLe(saved, kMaskRegionA) + 12);
    const Addr below = kMaskRegionA - (1ull << 30);
    for (const Addr region : {kMaskRegionA, below}) {
        std::vector<std::uint8_t> bytes = saved;
        putLe(bytes, b_at, region, 8);
        EXPECT_TRUE(restoreRejected(std::move(bytes))) << region;
    }
}

// A shootdown skips a TLB whose valid count is zero, and matches
// entries on their page size: a restore must not accept a count that
// disagrees with the valid bits, or a valid entry of another size.
TEST(ComponentSnapshot, TlbRestoreRejectsInconsistentEntries)
{
    tlb::TlbParams params;
    params.name = "l2_2m";
    params.entries = 4;
    params.assoc = 0;
    params.page_size = PageSize::Size2M;
    tlb::Tlb a(params);
    tlb::TlbEntry e;
    e.vpn = 0x31;
    e.ppn = 0x5a5a'0000'1234ull;
    e.size = PageSize::Size2M;
    e.pcid = 1;
    a.fill(e);
    snap::ArchiveWriter w;
    a.save(w);
    const std::vector<std::uint8_t> saved = w.payload();

    // The only valid entry sits in way 0, the first record: u8 valid,
    // u64 vpn, u64 ppn, u8 size, ...; the u32 valid count precedes it.
    const std::size_t ppn_at = findLe(saved, e.ppn);
    ASSERT_NE(ppn_at, std::string::npos);
    const std::size_t valid_at = ppn_at - 9;
    const std::size_t count_at = valid_at - 4;
    const std::size_t size_at = ppn_at + 8;
    ASSERT_EQ(saved.at(valid_at), 1u);
    ASSERT_EQ(saved.at(count_at), 1u);

    auto rejected = [&](std::vector<std::uint8_t> bytes) {
        tlb::Tlb b(params);
        snap::ArchiveReader r(std::move(bytes));
        try {
            b.restore(r);
        } catch (const snap::SnapshotError &err) {
            EXPECT_NE(std::string(err.what()).find("l2_2m"),
                      std::string::npos)
                << err.what();
            return true;
        }
        return false;
    };
    EXPECT_FALSE(rejected(saved));
    for (const std::uint64_t count : {0u, 2u, 4u}) {
        std::vector<std::uint8_t> bytes = saved;
        putLe(bytes, count_at, count, 4);
        EXPECT_TRUE(rejected(std::move(bytes))) << "count " << count;
    }
    std::vector<std::uint8_t> cleared = saved;
    cleared[valid_at] = 0;
    EXPECT_TRUE(rejected(std::move(cleared))) << "valid bit cleared";
    for (const PageSize size : {PageSize::Size4K, PageSize::Size1G}) {
        std::vector<std::uint8_t> bytes = saved;
        bytes[size_at] = static_cast<std::uint8_t>(size);
        EXPECT_TRUE(rejected(std::move(bytes)))
            << "size " << static_cast<int>(size);
    }
}

// ---------------------------------------------------------------------
// Whole-system resume determinism
// ---------------------------------------------------------------------

namespace
{

struct World
{
    std::unique_ptr<core::System> sys;
    workloads::AppInstance app;
    std::vector<std::unique_ptr<core::Thread>> threads;
};

/** Threads keep a reference to the profile: it must outlive them. */
const workloads::AppProfile &
httpdProfile()
{
    static const workloads::AppProfile profile =
        workloads::AppProfile::httpd();
    return profile;
}

/** The bench shape, shrunk: 4 cores x 2 httpd containers, sampling on. */
World
makeWorld(unsigned workers, bool babelfish = true, std::uint64_t seed = 31,
          const std::function<void(core::SystemParams &)> &tweak = {})
{
    core::SystemParams params = babelfish
                                    ? core::SystemParams::babelfish()
                                    : core::SystemParams::baseline();
    params.num_cores = 4;
    params.workers = workers;
    params.sync_chunk = 20000;
    params.kernel.mem_frames = 1 << 22;
    params.core.quantum = msToCycles(0.25);
    if (tweak)
        tweak(params);

    World w;
    w.sys = std::make_unique<core::System>(params);
    w.sys->enableSampling(msToCycles(0.25));
    const unsigned n = params.num_cores * 2;
    w.app = workloads::buildApp(w.sys->kernel(), httpdProfile(), n, seed);
    w.threads = workloads::makeAppThreads(w.app, seed);
    for (unsigned i = 0; i < n; ++i)
        w.sys->addThread(i % params.num_cores, w.threads[i].get());
    return w;
}

struct Capture
{
    std::string stats;
    std::string series;
};

Capture
capture(const World &w)
{
    return {stats::toJsonString(w.sys->stats()),
            w.sys->sampler().toJsonString()};
}

} // namespace

// A run resumed from a checkpoint taken at any of three cycles, at any
// worker count, must export the byte-identical stats and time-series
// JSON of the uninterrupted run — and saving the checkpoints must not
// perturb the saving run either.
TEST(SystemSnapshot, ResumeByteIdentical)
{
    constexpr double kSegMs = 0.5;
    constexpr int kSegments = 4;

    // Producer: checkpoint after each of the first three segments.
    World producer = makeWorld(1);
    std::vector<std::string> ckpts;
    for (int seg = 1; seg < kSegments; ++seg) {
        producer.sys->run(msToCycles(kSegMs));
        ckpts.push_back(tmpPath("resume" + std::to_string(seg) + ".ckpt"));
        ASSERT_TRUE(producer.sys->saveCheckpoint(ckpts.back()));
    }
    producer.sys->run(msToCycles(kSegMs));
    const Capture golden = capture(producer);

    // Control: the identical run without any checkpointing.
    World control = makeWorld(1);
    for (int seg = 0; seg < kSegments; ++seg)
        control.sys->run(msToCycles(kSegMs));
    const Capture clean = capture(control);
    ASSERT_EQ(clean.stats, golden.stats);
    ASSERT_EQ(clean.series, golden.series);

    for (int seg = 1; seg < kSegments; ++seg) {
        for (const unsigned workers : {1u, 2u, 4u}) {
            World w = makeWorld(workers);
            ASSERT_TRUE(w.sys->restoreCheckpoint(ckpts[seg - 1]))
                << "ckpt " << seg << " workers " << workers;
            for (int rest = seg; rest < kSegments; ++rest)
                w.sys->run(msToCycles(kSegMs));
            const Capture c = capture(w);
            EXPECT_EQ(golden.stats, c.stats)
                << "ckpt " << seg << " workers " << workers;
            EXPECT_EQ(golden.series, c.series)
                << "ckpt " << seg << " workers " << workers;
        }
    }
}

// The bench warm-up path: restore + resetStats must equal warm-up +
// resetStats, through the measurement window.
TEST(SystemSnapshot, WarmupCheckpointMatchesColdWarm)
{
    const std::string path = tmpPath("warm.ckpt");

    World cold = makeWorld(1);
    cold.sys->run(msToCycles(1));
    ASSERT_TRUE(cold.sys->saveCheckpoint(path));
    cold.sys->resetStats();
    cold.sys->run(msToCycles(1));
    const Capture golden = capture(cold);

    World warm = makeWorld(2);
    ASSERT_TRUE(warm.sys->restoreCheckpoint(path));
    warm.sys->resetStats();
    warm.sys->run(msToCycles(1));
    const Capture c = capture(warm);
    EXPECT_EQ(golden.stats, c.stats);
    EXPECT_EQ(golden.series, c.series);
}

// Regression: after a restore the sampler's clock grid resumes where it
// left off — recorded time-series rows continue strictly monotonically
// in cycle across the boundary, with no duplicated or reset rows.
TEST(SystemSnapshot, SamplerMonotonicAfterRestore)
{
    const std::string path = tmpPath("sampler.ckpt");

    World a = makeWorld(1);
    a.sys->run(msToCycles(1));
    ASSERT_TRUE(a.sys->saveCheckpoint(path));

    World b = makeWorld(1);
    ASSERT_TRUE(b.sys->restoreCheckpoint(path));
    const std::size_t at_restore = b.sys->sampler().points().size();
    ASSERT_GT(at_restore, 0u); // the restored series carries history
    b.sys->run(msToCycles(1));

    const auto &points = b.sys->sampler().points();
    ASSERT_GT(points.size(), at_restore); // ...and keeps growing
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_LT(points[i - 1].cycle, points[i].cycle)
            << "row " << i << " does not advance the clock";
        EXPECT_LE(points[i - 1].phase, points[i].phase)
            << "row " << i << " resets the phase";
    }
}

// Rejected files: corruption and config mismatch return false and leave
// the system in its cold state, which must still run normally.
TEST(SystemSnapshot, RejectionFallsBackToColdStart)
{
    const std::string path = tmpPath("reject.ckpt");

    World producer = makeWorld(1);
    producer.sys->run(msToCycles(0.5));
    ASSERT_TRUE(producer.sys->saveCheckpoint(path));
    const std::vector<std::uint8_t> good = slurp(path);

    // Bit flip -> CRC failure -> false, no crash.
    auto bad = good;
    bad[good.size() / 2] ^= 0x40;
    spit(path, bad);
    World w1 = makeWorld(1);
    EXPECT_FALSE(w1.sys->restoreCheckpoint(path));

    // Truncation -> false.
    spit(path, {good.begin(), good.begin() + good.size() / 3});
    World w2 = makeWorld(1);
    EXPECT_FALSE(w2.sys->restoreCheckpoint(path));

    // Missing file -> false.
    World w3 = makeWorld(1);
    EXPECT_FALSE(w3.sys->restoreCheckpoint(tmpPath("missing.ckpt")));

    // A BabelFish checkpoint into a baseline world: the manifest check
    // fires before any mutation -> false.
    spit(path, good);
    World base = makeWorld(1, /*babelfish=*/false);
    EXPECT_FALSE(base.sys->restoreCheckpoint(path));

    // Worlds differing in one geometry, latency or cost field: each is
    // caught by the manifest before any mutation (the structures' own
    // geometry echoes would otherwise throw mid-restore, and the costs
    // and latencies are checked nowhere else).
    const std::vector<std::function<void(core::SystemParams &)>> tweaks = {
        [](auto &p) { p.mmu.l2_4k.entries = 768; },
        [](auto &p) { p.mem.l2.size_bytes *= 2; },
        [](auto &p) { p.mmu.pwc.entries_per_level = 32; },
        [](auto &p) { p.kernel.minor_fault_cycles += 100; },
        [](auto &p) { p.mem.model_coherence = false; },
        [](auto &p) { p.mmu.l2_4k.access_cycles += 1; },
    };
    for (const auto &tweak : tweaks) {
        World other = makeWorld(1, true, 31, tweak);
        EXPECT_FALSE(other.sys->restoreCheckpoint(path));
        other.sys->run(msToCycles(0.5)); // still a working cold world
        EXPECT_GT(other.sys->totalInstructions(), 0u);
    }

    // The rejected worlds are untouched: a cold run proceeds and matches
    // a never-offered-a-checkpoint run.
    World fresh = makeWorld(1);
    fresh.sys->run(msToCycles(0.5));
    w1.sys->run(msToCycles(0.5));
    base.sys->run(msToCycles(0.5)); // different config; just must not die
    EXPECT_EQ(capture(fresh).stats, capture(w1).stats);
}

// The archive layout is pinned: a fixed small world per backend must
// serialize to these exact bytes. A layout change that keeps
// snap::formatVersion lets another build accept an archive it then
// misreads: CRC-valid, but inconsistent. When the layout changes on
// purpose, bump formatVersion and re-record the constants.
TEST(SystemSnapshot, ArchiveLayoutPinned)
{
    const struct
    {
        translate::BackendKind backend;
        std::uint32_t crc;
    } cases[] = {
        {translate::BackendKind::BabelFish, 0x059193a7u},
        {translate::BackendKind::Victima, 0x7f5e9c25u},
        {translate::BackendKind::Coalesced, 0x881ad66du},
    };
    for (const auto &c : cases) {
        World w = makeWorld(1, true, 31, [&](core::SystemParams &p) {
            p.mmu.backend = c.backend;
            // A small L2 TLB keeps the competitor structures busy.
            for (tlb::TlbParams *tp :
                 {&p.mmu.l2_4k, &p.mmu.l2_2m, &p.mmu.l2_1g}) {
                tp->entries = 16;
                tp->assoc = 4;
            }
        });
        w.sys->run(msToCycles(0.5));
        const std::string path = tmpPath("pinned.ckpt");
        ASSERT_TRUE(w.sys->saveCheckpoint(path));
        const std::vector<std::uint8_t> bytes = slurp(path);
        const std::uint32_t crc = snap::crc32(bytes.data(), bytes.size());
        EXPECT_EQ(crc, c.crc)
            << "backend " << static_cast<int>(c.backend) << ": crc 0x"
            << std::hex << crc
            << ". The checkpoint layout changed; if that was intended, "
               "bump snap::formatVersion and re-record these constants";
    }
}
