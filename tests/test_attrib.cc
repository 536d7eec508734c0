/**
 * @file
 * Tests for per-container attribution (common/attrib, DESIGN.md §17):
 *
 *  - the reconciliation invariant: for every mirrored counter, the sum
 *    over tenants equals the machine-global counter bit for bit, on
 *    both sides of a resetStats;
 *  - the determinism contract: exported stats (attrib subtree included)
 *    and the tenants JSON are byte-identical at BF_WORKERS {1,2,4};
 *  - checkpoint round trip: a restored twin reproduces the attribution
 *    subtree exactly and stays reconciled when run further;
 *  - BF_ATTRIB=0: no subtree, no registry, simulation unperturbed;
 *  - the live bf_top file: written, atomic, and rendering real rows.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/attrib/attrib.hh"
#include "common/stats_export.hh"
#include "core/system.hh"
#include "workloads/apps.hh"

using namespace bf;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

struct World
{
    std::unique_ptr<core::System> sys;
    workloads::AppInstance app;
    std::vector<std::unique_ptr<core::Thread>> threads;
};

/** Threads keep a reference to the profile: it must outlive them. */
const workloads::AppProfile &
mongodbProfile()
{
    static const workloads::AppProfile profile =
        workloads::AppProfile::mongodb();
    return profile;
}

/** The bench shape, shrunk: 4 cores x 2 containers, sampling on. */
World
makeWorld(unsigned workers, bool attrib = true, std::uint64_t seed = 37)
{
    core::SystemParams params = core::SystemParams::babelfish();
    params.num_cores = 4;
    params.workers = workers;
    params.sync_chunk = 20000;
    params.attrib = attrib;
    params.kernel.mem_frames = 1 << 22;
    params.core.quantum = msToCycles(0.25);

    World w;
    w.sys = std::make_unique<core::System>(params);
    w.sys->enableSampling(msToCycles(0.25));
    const unsigned n = params.num_cores * 2;
    w.app = workloads::buildApp(w.sys->kernel(), mongodbProfile(), n, seed);
    w.threads = workloads::makeAppThreads(w.app, seed);
    for (unsigned i = 0; i < n; ++i)
        w.sys->addThread(i % params.num_cores, w.threads[i].get());
    return w;
}

/** Sum one per-tenant counter over every tenant. */
std::uint64_t
tenantSum(const attrib::Registry &reg, attrib::Counter c)
{
    std::uint64_t sum = 0;
    for (std::size_t t = 0; t < reg.numTenants(); ++t)
        sum += reg.tenant(static_cast<int>(t)).counters[c].value();
    return sum;
}

/**
 * Assert the full reconciliation invariant against a finished (or
 * paused) system: per-tenant sums equal the machine-global counters —
 * integers bit for bit, the miss-latency distribution bucket-wise.
 */
void
expectReconciled(core::System &sys)
{
    const attrib::Registry &reg = *sys.attrib();

    // The 14 TranslateStats mirrors, summed over the per-core MMUs.
    struct Pair
    {
        attrib::Counter c;
        stats::Scalar translate::TranslateStats::*global;
    };
    const Pair pairs[] = {
        { attrib::kL1Hits, &translate::TranslateStats::l1_hits },
        { attrib::kL1Misses, &translate::TranslateStats::l1_misses },
        { attrib::kL2DataHits, &translate::TranslateStats::l2_data_hits },
        { attrib::kL2DataMisses,
          &translate::TranslateStats::l2_data_misses },
        { attrib::kL2InstrHits, &translate::TranslateStats::l2_instr_hits },
        { attrib::kL2InstrMisses,
          &translate::TranslateStats::l2_instr_misses },
        { attrib::kL2DataSharedHits,
          &translate::TranslateStats::l2_data_shared_hits },
        { attrib::kL2InstrSharedHits,
          &translate::TranslateStats::l2_instr_shared_hits },
        { attrib::kL2Long, &translate::TranslateStats::l2_long_accesses },
        { attrib::kMinorFaults, &translate::TranslateStats::minor_faults },
        { attrib::kMajorFaults, &translate::TranslateStats::major_faults },
        { attrib::kCowFaults, &translate::TranslateStats::cow_faults },
        { attrib::kSharedInstalls,
          &translate::TranslateStats::shared_installs },
        { attrib::kFaultCycles, &translate::TranslateStats::fault_cycles },
    };
    for (const auto &[c, global] : pairs) {
        std::uint64_t global_sum = 0;
        for (unsigned i = 0; i < sys.numCores(); ++i)
            global_sum += (sys.core(i).mmu().*global).value();
        EXPECT_EQ(tenantSum(reg, c), global_sum)
            << "counter " << attrib::counterName(c);
    }

    std::uint64_t walks = 0;
    for (unsigned i = 0; i < sys.numCores(); ++i)
        walks += sys.core(i).mmu().walker().walks.value();
    EXPECT_EQ(tenantSum(reg, attrib::kWalks), walks);
    EXPECT_EQ(tenantSum(reg, attrib::kInstructions),
              sys.totalInstructions());

    // Miss-latency distributions: bucket-for-bucket equality of the
    // merged per-tenant and merged per-core histograms.
    stats::Distribution tenant_lat, core_lat;
    for (std::size_t t = 0; t < reg.numTenants(); ++t)
        tenant_lat.merge(reg.tenant(static_cast<int>(t)).miss_latency);
    for (unsigned i = 0; i < sys.numCores(); ++i)
        core_lat.merge(sys.core(i).mmu().miss_latency);
    EXPECT_EQ(tenant_lat.count(), core_lat.count());
    EXPECT_EQ(tenant_lat.sum(), core_lat.sum());
    EXPECT_EQ(tenant_lat.max(), core_lat.max());
    EXPECT_EQ(tenant_lat.buckets(), core_lat.buckets());

    // Kernel-sourced scalars.
    std::uint64_t cows = 0, caused = 0;
    for (std::size_t t = 0; t < reg.numTenants(); ++t) {
        cows += reg.tenant(static_cast<int>(t)).cow_privatizations.value();
        caused +=
            reg.tenant(static_cast<int>(t)).shootdowns_caused.value();
    }
    EXPECT_EQ(cows, sys.kernel().cow_privatizations.value());
    EXPECT_EQ(caused, sys.kernel().shootdowns.value());
}

} // namespace

// ---------------------------------------------------------------------
// Reconciliation
// ---------------------------------------------------------------------

// Sum over tenants == global counters, bit for bit, both before and
// after a resetStats (the bench warm-up boundary).
TEST(Attrib, PerTenantSumsEqualGlobals)
{
    World w = makeWorld(2);
    w.sys->run(msToCycles(0.5));
    ASSERT_NE(w.sys->attrib(), nullptr);
    // One tenant per process: the container runtime + 8 containers.
    ASSERT_EQ(w.sys->attrib()->numTenants(), 9u);
    expectReconciled(*w.sys);
    EXPECT_GT(tenantSum(*w.sys->attrib(), attrib::kL1Hits), 0u);

    w.sys->resetStats();
    w.sys->run(msToCycles(0.75));
    expectReconciled(*w.sys);
    EXPECT_GT(tenantSum(*w.sys->attrib(), attrib::kWalks), 0u);
}

// ---------------------------------------------------------------------
// Determinism over the worker matrix
// ---------------------------------------------------------------------

// Exported stats (attrib subtree included) and the tenants JSON are
// byte-identical at every BF_WORKERS.
TEST(Attrib, WorkerMatrixByteIdentical)
{
    std::string ref_stats, ref_tenants;
    for (const unsigned workers : {1u, 2u, 4u}) {
        World w = makeWorld(workers);
        w.sys->run(msToCycles(0.25));
        w.sys->resetStats();
        w.sys->run(msToCycles(0.75));
        const std::string stats = stats::toJsonString(w.sys->stats());
        const std::string tenants = w.sys->attrib()->tenantsJson();
        if (ref_stats.empty()) {
            ref_stats = stats;
            ref_tenants = tenants;
        } else {
            EXPECT_EQ(stats, ref_stats) << "workers " << workers;
            EXPECT_EQ(tenants, ref_tenants) << "workers " << workers;
        }
    }
    EXPECT_NE(ref_tenants.find("\"slot\":0"), std::string::npos);
}

// ---------------------------------------------------------------------
// Checkpoint round trip
// ---------------------------------------------------------------------

// The attribution subtree rides the stats section: a restored twin
// exports identical JSON, and further simulation stays reconciled.
TEST(Attrib, CheckpointRoundTripPreservesTenants)
{
    const std::string path = tmpPath("attrib.ckpt");
    World a = makeWorld(1);
    a.sys->run(msToCycles(1));
    ASSERT_TRUE(a.sys->saveCheckpoint(path));

    World b = makeWorld(2);
    ASSERT_TRUE(b.sys->restoreCheckpoint(path));
    EXPECT_EQ(stats::toJsonString(a.sys->stats()),
              stats::toJsonString(b.sys->stats()));
    EXPECT_EQ(a.sys->attrib()->tenantsJson(),
              b.sys->attrib()->tenantsJson());

    a.sys->run(msToCycles(0.5));
    b.sys->run(msToCycles(0.5));
    EXPECT_EQ(stats::toJsonString(a.sys->stats()),
              stats::toJsonString(b.sys->stats()));
    expectReconciled(*b.sys);
}

// A checkpoint saved with attribution on must not restore into a
// system built with it off (the manifest records the flag).
TEST(Attrib, CheckpointAttribFlagMismatchRejected)
{
    const std::string path = tmpPath("attrib-flag.ckpt");
    World a = makeWorld(1);
    a.sys->run(msToCycles(0.25));
    ASSERT_TRUE(a.sys->saveCheckpoint(path));

    World off = makeWorld(1, /*attrib=*/false);
    EXPECT_FALSE(off.sys->restoreCheckpoint(path));
}

// ---------------------------------------------------------------------
// BF_ATTRIB=0
// ---------------------------------------------------------------------

// With attribution off there is no registry and no attrib subtree, and
// the architectural stats are byte-identical to an attributed run's
// (attribution is pure observability).
TEST(Attrib, DisabledLeavesNoSubtreeAndNoPerturbation)
{
    World off = makeWorld(2, /*attrib=*/false);
    EXPECT_EQ(off.sys->attrib(), nullptr);
    off.sys->run(msToCycles(0.75));
    const std::string off_stats = stats::toJsonString(off.sys->stats());
    EXPECT_EQ(off_stats.find("\"attrib\""), std::string::npos);

    World on = makeWorld(2, /*attrib=*/true);
    on.sys->run(msToCycles(0.75));
    std::string on_stats = stats::toJsonString(on.sys->stats());
    // Splice the attrib subtree out of the attributed export: the
    // remainder must match the unattributed run byte for byte.
    const std::size_t at = on_stats.find(",\"attrib\":");
    ASSERT_NE(at, std::string::npos);
    std::size_t depth = 0, end = on_stats.find('{', at);
    ASSERT_NE(end, std::string::npos);
    for (; end < on_stats.size(); ++end) {
        if (on_stats[end] == '{')
            ++depth;
        else if (on_stats[end] == '}' && --depth == 0)
            break;
    }
    on_stats.erase(at, end + 1 - at);
    EXPECT_EQ(on_stats, off_stats);
}

// ---------------------------------------------------------------------
// Live bf_top file
// ---------------------------------------------------------------------

// enableTopFile publishes a rendered table with one row per tenant and
// no leftover tmp file (atomic tmp + rename).
TEST(Attrib, TopFileWritten)
{
    const std::string path = tmpPath("bftop.txt");
    World w = makeWorld(1);
    w.sys->enableTopFile(path, /*min_interval_seconds=*/0.0);
    w.sys->run(msToCycles(0.5));

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no live table at " << path;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("slot name"), std::string::npos);
    EXPECT_NE(text.find("mongodb"), std::string::npos);
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}
