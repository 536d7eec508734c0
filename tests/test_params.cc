/**
 * @file
 * Tests for the one parameter description:
 *
 *  - core::forEachParam coverage: perturbing any visited field changes
 *    the bench config hash and makes the checkpoint manifest check
 *    reject the archive, naming the field; perturbing a host-only field
 *    changes neither, so one warm-up checkpoint serves every BF_WORKERS;
 *  - the bench knob table: malformed, out-of-range and unknown BF_*
 *    knobs exit 2 naming the knob; valid values round-trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/common.hh"
#include "common/snapshot.hh"
#include "core/params.hh"

using namespace bf;
using bfbench::RunConfig;

namespace
{

/** Move a field to a different value of its type. */
template <typename T>
void
perturb(T &value)
{
    if constexpr (std::is_same_v<T, bool>)
        value = !value;
    else if constexpr (std::is_enum_v<T>)
        value = static_cast<T>(
            static_cast<std::underlying_type_t<T>>(value) ^ 1);
    else
        value = value + 1;
}

/** Dotted names of every visited field, in visit order. */
std::vector<std::string>
paramNames(const core::SystemParams &params)
{
    std::vector<std::string> names;
    core::forEachParam(params, [&](std::string_view name, const auto &) {
        names.emplace_back(name);
    });
    return names;
}

/** A MANI payload holding @p params' manifest. */
std::vector<std::uint8_t>
manifestOf(const core::SystemParams &params)
{
    snap::ArchiveWriter writer;
    writer.beginSection("MANI");
    core::saveParams(writer, params);
    writer.endSection();
    return writer.payload();
}

/** The manifest check's diagnostic, or "" when it accepts. */
std::string
checkManifest(const std::vector<std::uint8_t> &payload,
              const core::SystemParams &params)
{
    snap::ArchiveReader reader(payload);
    try {
        reader.enterSection("MANI");
        core::checkParams(reader, params);
        reader.exitSection();
    } catch (const snap::SnapshotError &err) {
        return err.what();
    }
    return "";
}

} // namespace

TEST(ParamVisitor, EveryFieldShapesHashAndManifest)
{
    const core::SystemParams base = core::SystemParams::babelfish();
    const RunConfig cfg;
    const std::vector<std::string> names = paramNames(base);
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              names.size());
    for (const char *name :
         { "mmu.l2_4k.entries", "mem.l2.size_bytes",
           "mmu.pwc.entries_per_level", "mmu.aslr",
           "kernel.minor_fault_cycles", "mem.dram.t_cas",
           "mem.model_coherence", "mmu.l2_4k.access_cycles" }) {
        EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
            << name;
    }

    const auto manifest = manifestOf(base);
    EXPECT_EQ(checkManifest(manifest, base), "");
    for (std::size_t k = 0; k < names.size(); ++k) {
        core::SystemParams params = base;
        std::size_t i = 0;
        core::forEachParam(params, [&](std::string_view, auto &value) {
            if (i++ == k)
                perturb(value);
        });
        EXPECT_NE(cfg.configHash(params), cfg.configHash(base)) << names[k];
        EXPECT_EQ(checkManifest(manifest, params),
                  "manifest mismatch: " + names[k]);
    }
}

TEST(ParamVisitor, HostOnlyFieldsLeaveHashAndManifestAlone)
{
    const core::SystemParams base = core::SystemParams::babelfish();
    const RunConfig cfg;
    const auto manifest = manifestOf(base);

    core::SystemParams host = base;
    host.workers = 4;
    host.mmu.l0_cache = false;
    host.trace_path = "run.trace";
    host.trace_limit = 1000;
    EXPECT_EQ(cfg.configHash(host), cfg.configHash(base));
    EXPECT_EQ(checkManifest(manifest, host), "");

    // Harness side: the measurement window and host parallelism stay out
    // of the tag; the hashed harness fields are in it.
    RunConfig other = cfg;
    other.measure_ms = 99;
    other.jobs = 3;
    other.system_workers = 4;
    EXPECT_EQ(other.configHash(base), cfg.configHash(base));
    for (auto field : { &RunConfig::warm_ms, &RunConfig::sample_ms }) {
        other = cfg;
        other.*field += 1;
        EXPECT_NE(other.configHash(base), cfg.configHash(base));
    }
    other = cfg;
    other.containers_per_core = 3;
    EXPECT_NE(other.configHash(base), cfg.configHash(base));
    other = cfg;
    other.seed = 7;
    EXPECT_NE(other.configHash(base), cfg.configHash(base));
}

TEST(KnobsDeathTest, BadKnobsExit2NamingTheKnob)
{
    const auto fromEnvWith = [](const char *name, const char *value) {
        setenv(name, value, 1);
        RunConfig::fromEnv();
    };
    EXPECT_EXIT(fromEnvWith("BF_CORES", "abc"),
                ::testing::ExitedWithCode(2), "BF_CORES");
    EXPECT_EXIT(fromEnvWith("BF_SYNC_CHUNK", "0"),
                ::testing::ExitedWithCode(2), "BF_SYNC_CHUNK");
    EXPECT_EXIT(fromEnvWith("BF_WORKERS", "0"),
                ::testing::ExitedWithCode(2), "BF_WORKERS");
    EXPECT_EXIT(fromEnvWith("BF_TRACE_LIMIT", "0xZZ"),
                ::testing::ExitedWithCode(2), "BF_TRACE_LIMIT");
    EXPECT_EXIT(fromEnvWith("BF_MEASURE_MS", "abc"),
                ::testing::ExitedWithCode(2), "BF_MEASURE_MS");
    EXPECT_EXIT(fromEnvWith("BF_WROKERS", "4"),
                ::testing::ExitedWithCode(2), "BF_WROKERS");
    // A removed knob is an unknown one, not silently ignored.
    EXPECT_EXIT(fromEnvWith("BF_BATCH", "16"),
                ::testing::ExitedWithCode(2), "BF_BATCH");
    EXPECT_EXIT(fromEnvWith("BF_ATTRIB", "0"),
                ::testing::ExitedWithCode(2), "unknown knob BF_ATTRIB");
    EXPECT_EXIT(fromEnvWith("BF_TRACE_EVENTS", "0x1f"),
                ::testing::ExitedWithCode(2), "unknown knob BF_TRACE_EVENTS");
    EXPECT_EXIT(fromEnvWith("BF_ZOO_GRID", "9"),
                ::testing::ExitedWithCode(2), "unknown knob BF_ZOO_GRID");
}

TEST(Knobs, ValidValuesRoundTrip)
{
    const std::vector<std::pair<const char *, const char *>> env = {
        { "BF_FAST", "1" },          { "BF_CORES", "3" },
        { "BF_WORKERS", "2" },       { "BF_TRACE_LIMIT", "0x1f4" },
        { "BF_SAMPLE_MS", "0.25" },  { "BF_BACKEND", "victima" },
        { "BF_CKPT", "ckpts" },      { "BF_MEASURE_MS", "0.85" },
    };
    for (const auto &[name, value] : env)
        setenv(name, value, 1);
    const RunConfig cfg = RunConfig::fromEnv();
    const double measure = bfbench::knob("BF_MEASURE_MS", 0.0);
    const unsigned grid = bfbench::knob("BF_REPLAY_GRID", 64u);
    for (const auto &[name, value] : env)
        unsetenv(name);

    EXPECT_EQ(cfg.num_cores, 3u); // BF_CORES wins over BF_FAST's 4
    EXPECT_DOUBLE_EQ(cfg.warm_ms, 6);
    EXPECT_DOUBLE_EQ(cfg.measure_ms, 0.85); // BF_MEASURE_MS wins too
    EXPECT_EQ(cfg.system_workers, 2u);
    EXPECT_EQ(cfg.trace_limit, 500u); // 0x1f4: hex is accepted
    EXPECT_DOUBLE_EQ(cfg.sample_ms, 0.25);
    EXPECT_EQ(cfg.backend, translate::BackendKind::Victima);
    EXPECT_EQ(cfg.ckpt_dir, "ckpts");
    EXPECT_EQ(cfg.jobs, defaultWorkers()); // unset resolves to hardware
    EXPECT_DOUBLE_EQ(measure, 0.85);
    EXPECT_EQ(grid, 64u); // unset: the fallback
}
