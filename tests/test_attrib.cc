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
 *  - the live bf_top file: written, atomic, and rendering real rows.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/attrib/attrib.hh"
#include "common/stats_export.hh"
#include "core/system.hh"
#include "translate/stats.hh"
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

/**
 * The bench shape, shrunk: 4 cores x 2 containers, sampling on. A
 * competitor @p backend runs on the non-sharing baseline its paper
 * assumes, as in bench_paper's baseline cells under BF_BACKEND.
 */
World
makeWorld(unsigned workers, std::uint64_t seed = 37,
          translate::BackendKind backend = translate::BackendKind::BabelFish)
{
    core::SystemParams params =
        backend == translate::BackendKind::BabelFish
            ? core::SystemParams::babelfish()
            : core::SystemParams::baseline();
    params.mmu.backend = backend;
    params.num_cores = 4;
    params.workers = workers;
    params.sync_chunk = 20000;
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
    const attrib::Registry &reg = sys.attrib();

    // The TranslateStats mirrors — attrib::Counter's leading lanes, in
    // the table's order — summed over the per-core MMUs.
    std::uint64_t global[translate::kNumScalarStats] = {};
    for (unsigned i = 0; i < sys.numCores(); ++i) {
        unsigned lane = 0;
        translate::forEachScalarStat(
            static_cast<translate::TranslateStats &>(sys.core(i).mmu()),
            [&](const char *, const stats::Scalar &stat) {
                global[lane++] += stat.value();
            });
    }
    for (unsigned c = 0; c < translate::kNumScalarStats; ++c)
        EXPECT_EQ(tenantSum(reg, attrib::Counter(c)), global[c])
            << "counter " << attrib::counterName(attrib::Counter(c));

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
    // One tenant per process: the container runtime + 8 containers.
    ASSERT_EQ(w.sys->attrib().numTenants(), 9u);
    expectReconciled(*w.sys);
    EXPECT_GT(tenantSum(w.sys->attrib(), attrib::kL1Hits), 0u);

    w.sys->resetStats();
    w.sys->run(msToCycles(0.75));
    expectReconciled(*w.sys);
    EXPECT_GT(tenantSum(w.sys->attrib(), attrib::kWalks), 0u);
}

// Each tenant receives exactly the shootdowns issued while it was a
// member: a SharedRange one reaches every member of its group at issue
// time, a Page or Pcid one the owner of its PCID. The test keeps its
// own member lists, joined after create/fork returns and left after
// exitProcess, and counts the receivers of every shootdown the hook
// sees.
TEST(Attrib, ShootdownsReachTheMembersOfTheirTime)
{
    vm::KernelParams kp = core::SystemParams::babelfish().kernel;
    kp.mem_frames = 1 << 22;
    vm::Kernel kernel(kp);
    attrib::Registry reg(nullptr, 1);
    kernel.setAttribRegistry(&reg);

    std::map<Ccid, std::vector<vm::Process *>> members;
    std::map<Pid, std::uint64_t> expected;
    std::uint64_t shared_range = 0;
    kernel.setTlbInvalidateHook([&](const vm::TlbInvalidate &inv) {
        if (inv.kind == vm::TlbInvalidate::Kind::SharedRange) {
            ++shared_range;
            for (const vm::Process *p : members[inv.ccid])
                ++expected[p->pid()];
            return;
        }
        for (const auto &[ccid, group] : members)
            for (const vm::Process *p : group)
                if (p->pcid() == inv.pcid)
                    ++expected[p->pid()];
    });

    constexpr Addr va = 0x7f00'0000'0000ull;
    const auto join = [&](vm::Process *p) {
        members[p->ccid()].push_back(p);
        return p;
    };
    const auto write = [&](vm::Process &p, int first, int pages) {
        for (int i = first; i < first + pages; ++i)
            kernel.handleFault(p, va + i * basePageBytes, AccessType::Write);
    };
    const Ccid g = kernel.createGroup("g", 1);
    const Ccid h = kernel.createGroup("h", 2);
    vm::Process *parent = join(kernel.createProcess(g, "parent"));
    vm::Process *other = join(kernel.createProcess(h, "other"));
    kernel.mmapAnon(*parent, va, 1 << 20, true, /*allow_huge=*/false);
    kernel.mmapAnon(*other, va, 1 << 20, true, /*allow_huge=*/false);
    write(*parent, 0, 64);
    write(*other, 0, 8);
    vm::Process *c1 = join(kernel.fork(*parent, "c1"));
    write(*c1, 0, 32);
    vm::Process *c2 = join(kernel.fork(*parent, "c2"));
    write(*parent, 0, 16);
    const Pid c1_pid = c1->pid();
    kernel.exitProcess(*c1);
    std::erase(members[g], c1);
    write(*c2, 0, 48);
    write(*parent, 64, 64);

    ASSERT_GT(shared_range, 0u);
    std::uint64_t caused = 0;
    for (const Pid pid : {parent->pid(), other->pid(), c1_pid, c2->pid()}) {
        const attrib::Tenant &t = reg.tenant(reg.slotOfPid(pid));
        EXPECT_EQ(t.shootdowns_received.value(), expected[pid])
            << "pid " << pid;
        EXPECT_EQ(t.shootdowns_received_cross.value(), 0u);
        caused += t.shootdowns_caused.value();
    }
    EXPECT_GT(expected[c1_pid], 0u);
    EXPECT_EQ(caused, kernel.shootdowns.value());
}

// The named lanes sit where the TranslateStats table puts their
// counters: renderTable and the tests read lanes by enum name, while
// the lane order and names come from the table.
TEST(Attrib, CounterLanesFollowTranslateStats)
{
    translate::TranslateStats ts;
    const std::pair<attrib::Counter, const stats::Scalar *> lanes[] = {
        { attrib::kL1Hits, &ts.l1_hits },
        { attrib::kL1Misses, &ts.l1_misses },
        { attrib::kL2DataHits, &ts.l2_data_hits },
        { attrib::kL2DataMisses, &ts.l2_data_misses },
        { attrib::kL2InstrHits, &ts.l2_instr_hits },
        { attrib::kL2InstrMisses, &ts.l2_instr_misses },
        { attrib::kL2DataSharedHits, &ts.l2_data_shared_hits },
        { attrib::kL2InstrSharedHits, &ts.l2_instr_shared_hits },
        { attrib::kL2Long, &ts.l2_long_accesses },
        { attrib::kMinorFaults, &ts.minor_faults },
        { attrib::kMajorFaults, &ts.major_faults },
        { attrib::kCowFaults, &ts.cow_faults },
        { attrib::kSharedInstalls, &ts.shared_installs },
        { attrib::kFaultCycles, &ts.fault_cycles },
    };
    ASSERT_EQ(std::size(lanes), translate::kNumScalarStats);
    for (const auto &[c, counter] : lanes) {
        unsigned lane = 0, found = translate::kNumScalarStats;
        translate::forEachScalarStat(
            ts, [&](const char *, const stats::Scalar &stat) {
                if (&stat == counter)
                    found = lane;
                ++lane;
            });
        EXPECT_EQ(found, static_cast<unsigned>(c))
            << attrib::counterName(c);
    }
    EXPECT_STREQ(attrib::counterName(attrib::kWalks), "walks");
    EXPECT_STREQ(attrib::counterName(attrib::kInstructions),
                 "instructions");
}

// ---------------------------------------------------------------------
// Reset scope
// ---------------------------------------------------------------------

namespace
{

/** Every scalar and distribution count of a stats tree, by path. */
struct FlatStats : stats::StatVisitor
{
    std::map<std::string, std::uint64_t> scalars;
    std::map<std::string, std::uint64_t> dist_counts;

    void
    visitScalar(const stats::StatGroup &group, const std::string &name,
                const stats::Scalar &stat) override
    {
        scalars[group.path() + "." + name] = stat.value();
    }

    void
    visitDistribution(const stats::StatGroup &group,
                      const std::string &name,
                      const stats::Distribution &stat) override
    {
        dist_counts[group.path() + "." + name] = stat.count();
    }
};

bool
startsWith(const std::string &path, const std::string &prefix)
{
    return path.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

class StatsReset : public ::testing::TestWithParam<translate::BackendKind>
{};

// System::resetStats (the warm-up boundary) restarts every stat under
// system.core* and system.caches from zero. system.kernel and each
// tenant's identity and kernel-sourced stats keep their values.
TEST_P(StatsReset, ScopeIsCoresAndCaches)
{
    World w = makeWorld(1, 37, GetParam());
    w.sys->run(msToCycles(0.5));
    FlatStats before, after;
    w.sys->stats().accept(before);
    w.sys->resetStats();
    w.sys->stats().accept(after);
    ASSERT_EQ(before.scalars.size(), after.scalars.size());

    const auto resetScope = [](const std::string &path) {
        return startsWith(path, "system.core") ||
               startsWith(path, "system.caches.");
    };
    std::uint64_t reset_before = 0, kept = 0;
    for (const auto &[path, value] : after.scalars) {
        if (resetScope(path)) {
            EXPECT_EQ(value, 0u) << path;
            reset_before += before.scalars.at(path);
        } else if (startsWith(path, "system.kernel.")) {
            EXPECT_EQ(value, before.scalars.at(path)) << path;
            kept += value;
        }
    }
    for (const auto &[path, count] : after.dist_counts) {
        if (resetScope(path)) {
            EXPECT_EQ(count, 0u) << path;
            reset_before += before.dist_counts.at(path);
        }
    }
    EXPECT_GT(reset_before, 0u);
    EXPECT_GT(kept, 0u);

    const attrib::Registry &reg = w.sys->attrib();
    ASSERT_GT(reg.numTenants(), 0u);
    for (std::size_t t = 0; t < reg.numTenants(); ++t) {
        const std::string at = "system.attrib.t" + std::to_string(t) + ".";
        for (const char *name :
             {"pid", "ccid", "cow_privatizations", "shootdowns_caused",
              "shootdowns_caused_cross", "shootdowns_received",
              "shootdowns_received_cross"})
            EXPECT_EQ(after.scalars.at(at + name),
                      before.scalars.at(at + name))
                << at + name;
        EXPECT_NE(after.scalars.at(at + "pid"), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, StatsReset,
    ::testing::Values(translate::BackendKind::BabelFish,
                      translate::BackendKind::Victima,
                      translate::BackendKind::Coalesced),
    [](const ::testing::TestParamInfo<translate::BackendKind> &info) {
        return std::string(translate::backendName(info.param));
    });

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
        const std::string tenants = w.sys->attrib().tenantsJson();
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
    EXPECT_EQ(a.sys->attrib().tenantsJson(),
              b.sys->attrib().tenantsJson());

    a.sys->run(msToCycles(0.5));
    b.sys->run(msToCycles(0.5));
    EXPECT_EQ(stats::toJsonString(a.sys->stats()),
              stats::toJsonString(b.sys->stats()));
    expectReconciled(*b.sys);
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
    w.sys->enableTopFile(path); // the first barrier writes at once
    w.sys->run(msToCycles(0.5));

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no live table at " << path;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("slot name"), std::string::npos);
    EXPECT_NE(text.find("mongodb"), std::string::npos);
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}
