/**
 * @file
 * Shared harness for the paper-reproduction benches.
 *
 * Each bench binary reproduces one table or figure of the paper's
 * evaluation (§VII). The harness builds the Table I server (8 cores, 2
 * containers/core for Data Serving and Compute, 3 function containers
 * per core for FaaS), runs the two-phase warm-up + measurement protocol
 * of §VI, and extracts the metrics the paper reports.
 *
 * Environment knobs: every BF_* variable is one row of `knobs` below —
 * its type, accepted range and doc line. RunConfig::fromEnv checks the
 * whole environment at start-up: a malformed or out-of-range value, or
 * a BF_* name the table does not list, exits 2 naming the knob. The
 * same table drives the report `config` block (reportConfig) and the
 * harness half of RunConfig::configHash.
 */

#ifndef BF_BENCH_COMMON_HH
#define BF_BENCH_COMMON_HH

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "bench/report.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats_export.hh"
#include "core/system.hh"
#include "workloads/apps.hh"
#include "workloads/function.hh"

namespace bfbench
{

using namespace bf;

/** Harness-level run configuration. */
struct RunConfig
{
    unsigned num_cores = 8;
    unsigned containers_per_core = 2; //!< Paper §VI: conservative.
    double warm_ms = 15;
    double measure_ms = 35;
    double sample_ms = 1;      //!< Time-series period; 0 = off.
    unsigned jobs = 0;         //!< Worker threads; 0 = hardware.
    unsigned system_workers = 1; //!< Pool threads per System.
    /** References per pull in perfbench's generator pass. */
    static constexpr unsigned batch = 1;
    Cycles sync_chunk = 20000;   //!< Lockstep chunk length in cycles.
    std::uint64_t seed = 42;
    std::string ckpt_dir;      //!< BF_CKPT: save post-warm-up state here.
    std::string restore_dir;   //!< BF_RESTORE: load warm-up state from here.
    std::string trace_dir;     //!< BF_TRACE: event-trace output directory.
    std::uint64_t trace_limit = 0; //!< BF_TRACE_LIMIT cap.
    std::string top_path;      //!< BF_TOP: live per-tenant table file.
    /** BF_BACKEND, stamped by applyExecKnobs into every System. */
    translate::BackendKind backend = translate::BackendKind::BabelFish;

    /**
     * The defaults overridden by the BF_* knobs in the environment (see
     * `knobs`; exits 2 on a bad one). BF_JOBS 0 resolves to all CPUs.
     */
    static RunConfig fromEnv();

    /**
     * FNV-1a hash of every core::forEachParam field plus the `hashed`
     * harness fields of `knobs`. The measurement window and host-only
     * knobs are not in it: one warm-up tag serves every measurement
     * length and BF_WORKERS, and traces recorded at different
     * BF_WORKERS land on the same name for byte comparison.
     */
    std::uint64_t configHash(const core::SystemParams &params) const;

    /** "<profile>-<16 hex of configHash>.<ext>" */
    std::string
    tagFor(const std::string &name, const core::SystemParams &params,
           const char *ext) const
    {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(configHash(params)));
        return name + "-" + hex + ext;
    }

    /** Name of the checkpoint file a run saves/loads. */
    std::string
    checkpointTag(const std::string &name,
                  const core::SystemParams &params) const
    {
        return tagFor(name, params, ".ckpt");
    }

    /**
     * Name of the event-trace file a run writes under BF_TRACE. Note
     * that repeated runs of an identical configuration in one bench
     * overwrite each other's trace — the last run's file survives.
     */
    std::string
    traceTag(const std::string &name,
             const core::SystemParams &params) const
    {
        return tagFor(name, params, ".trace");
    }

    /**
     * Point a parameter set's tracing knobs at
     * "<BF_TRACE>/<profile>-<hash>.trace" (no-op without BF_TRACE).
     */
    void
    applyTraceKnobs(core::SystemParams &params,
                    const std::string &name) const
    {
        if (trace_dir.empty())
            return;
        std::error_code ec;
        std::filesystem::create_directories(trace_dir, ec);
        params.trace_path = trace_dir + "/" + traceTag(name, params);
        params.trace_limit = trace_limit;
    }

    /** Stamp the System-execution knobs into a parameter set. */
    void
    applyExecKnobs(core::SystemParams &params) const
    {
        params.workers = system_workers;
        params.sync_chunk = sync_chunk;
        params.mmu.backend = backend;
    }

    /** Sampling period in cycles (0 = sampling off). */
    Cycles sampleInterval() const { return msToCycles(sample_ms); }

    /** Effective worker-thread count. */
    unsigned
    workers() const
    {
        return jobs ? jobs : defaultWorkers();
    }
};

/** Value type of a BF_* knob. */
enum class KnobType : std::uint8_t
{
    Count, //!< Unsigned integer, decimal or 0x hex; flags are [0, 1].
    Real,  //!< Decimal number.
    Text,  //!< A path, or one of the row's choices when it has them.
};
using enum KnobType;

/** The RunConfig field a knob sets (none for the per-bench knobs). */
using KnobTarget =
    std::variant<std::monostate, unsigned RunConfig::*,
                 std::uint64_t RunConfig::*, double RunConfig::*,
                 std::string RunConfig::*,
                 translate::BackendKind RunConfig::*>;

/** One row of the knob table. */
struct Knob
{
    const char *name = nullptr; //!< BF_* variable; null: no knob sets it.
    KnobType type = Count;
    double lo = 0, hi = 0;      //!< Accepted range (Count, Real).
    KnobTarget target{};        //!< The RunConfig field fromEnv sets.
    const char *report = nullptr; //!< Report `config` key, if reported.
    const char *doc = "";
    bool hashed = false; //!< A numeric field shaping the warmed state.
    bool report_if_changed = false; //!< Report only off the default.
    const char *choices = nullptr;  //!< Text: "a|b|c" when restricted.
};

/**
 * Every BF_* environment knob, plus the harness fields no knob sets
 * that the report or the config hash still need. Reported rows are in
 * report order.
 */
inline const Knob knobs[] = {
    { "BF_FAST", Count, 0, 1, {}, nullptr,
      "1 = quarter-length runs on 4 cores (CI smoke mode)" },
    { "BF_CORES", Count, 1, 1024, &RunConfig::num_cores, "num_cores",
      "timing cores (8; 4 under BF_FAST)" },
    { nullptr, Count, 0, 0, &RunConfig::containers_per_core,
      "containers_per_core", "containers per core (§VI: 2)", /*hashed=*/true },
    { nullptr, Real, 0, 0, &RunConfig::warm_ms, "warm_ms",
      "warm-up in simulated ms (15; 6 under BF_FAST)", /*hashed=*/true },
    { "BF_MEASURE_MS", Real, 1e-3, 1e6, &RunConfig::measure_ms,
      "measure_ms", "measured ms after warm-up (35; 12 under BF_FAST)" },
    { "BF_SAMPLE_MS", Real, 0, 1e6, &RunConfig::sample_ms, "sample_ms",
      "time-series period in simulated ms (1; 0 = off)", /*hashed=*/true },
    { "BF_JOBS", Count, 0, 1024, &RunConfig::jobs, "jobs",
      "threads for independent configurations (0: all CPUs)" },
    { "BF_WORKERS", Count, 1, 1024, &RunConfig::system_workers, "workers",
      "host threads inside each System (1; stats identical)" },
    { "BF_SYNC_CHUNK", Count, 1, 1e12, &RunConfig::sync_chunk,
      "sync_chunk", "lockstep sync-chunk length in cycles (20000)" },
    { nullptr, Count, 0, 0, &RunConfig::seed, "seed",
      "workload and ASLR seed (42)", /*hashed=*/true },
    { "BF_CKPT", Text, 0, 0, &RunConfig::ckpt_dir, "ckpt_dir",
      "save each app run's post-warm-up checkpoint into this dir" },
    { "BF_RESTORE", Text, 0, 0, &RunConfig::restore_dir, "restore_dir",
      "restore warm-up checkpoints from this dir (else cold start)" },
    { "BF_TRACE", Text, 0, 0, &RunConfig::trace_dir, "trace",
      "write <profile>-<hash>.trace event traces into this dir" },
    { "BF_TRACE_LIMIT", Count, 0, 0x1p53, &RunConfig::trace_limit,
      "trace_limit", "cap on records per trace (0 = unlimited)" },
    { "BF_BACKEND", Text, 0, 0, &RunConfig::backend, "backend",
      "translation backend (DESIGN.md §16)", /*hashed=*/false,
      /*report_if_changed=*/true, "babelfish|victima|coalesced" },
    { "BF_TOP", Text, 0, 0, &RunConfig::top_path, nullptr,
      "publish the live per-tenant table into this file" },
    { "BF_JSON", Count, 0, 1, {}, nullptr,
      "0 = skip the BENCH_<name>.json report" },
    { "BF_JSON_DIR", Text, 0, 0, {}, nullptr,
      "directory for the JSON report (.)" },
    { "BF_LOG", Text, 0, 0, {}, nullptr, "log level (warn)",
      /*hashed=*/false, /*report_if_changed=*/false, "quiet|warn|info" },
    { "BF_REPEAT", Count, 1, 1000, {}, nullptr,
      "bench_simspeed: best of n timings per workload (1)" },
    { "BF_REPLAY_TRACE", Text, 0, 0, {}, nullptr,
      "bench_replay_sweep: replay this trace, don't record one" },
    { "BF_REPLAY_GRID", Count, 1, 1e6, {}, nullptr,
      "bench_replay_sweep: cap on sweep points (64)" },
};

/** The row of knob @p name, or null when the table has none. */
inline const Knob *
findKnob(std::string_view name)
{
    for (const Knob &knob : knobs) {
        if (knob.name && name == knob.name)
            return &knob;
    }
    return nullptr;
}

/**
 * The one table reader: when @p row's variable is set, parse it as the
 * row's type into @p dst (a Text row's value, or a Count/Real row's
 * number when T is arithmetic). A malformed or out-of-range value
 * prints "<knob>=<value>: <why>" and exits 2.
 */
template <typename T>
void
readKnob(const Knob &row, T &dst)
{
    const char *text = std::getenv(row.name);
    if (!text)
        return;
    const std::string value = text;
    const auto fail = [&](const std::string &why) {
        std::fprintf(stderr, "%s=%s: %s\n", row.name, text, why.c_str());
        std::exit(2);
    };
    if (row.type == Text) {
        if (row.choices &&
            std::string("|").append(row.choices).append("|").find(
                "|" + value + "|") == std::string::npos)
            fail(std::string("not one of ") + row.choices);
        if constexpr (std::is_same_v<T, std::string>)
            dst = value;
        else if constexpr (std::is_same_v<T, translate::BackendKind>)
            translate::parseBackend(text, dst);
        return;
    }
    const char *last = text + value.size();
    const bool hex = value.starts_with("0x");
    std::uint64_t bits = 0;
    double number = 0;
    const auto [end, ec] = hex ? std::from_chars(text + 2, last, bits, 16)
                               : std::from_chars(text, last, number);
    if (hex)
        number = static_cast<double>(bits);
    if (ec != std::errc() || end != last ||
        (row.type == Count && number != std::floor(number)))
        fail(row.type == Count ? "not an unsigned integer" : "not a number");
    if (!(number >= row.lo && number <= row.hi)) {
        char range[64];
        std::snprintf(range, sizeof range, "outside [%g, %g]", row.lo,
                      row.hi);
        fail(range);
    }
    if constexpr (std::is_arithmetic_v<T>)
        dst = static_cast<T>(number);
}

/** Knob @p name's value, or @p fallback when unset (exits 2 if bad). */
template <typename T>
T
knob(std::string_view name, T fallback)
{
    const Knob *row = findKnob(name);
    bf_assert(row, "no knob named ", name);
    readKnob(*row, fallback);
    return fallback;
}

/** Call f(&RunConfig::field) if @p knob has a target. */
template <typename F>
void
visitTarget(const Knob &knob, F &&f)
{
    std::visit(
        [&](auto field) {
            if constexpr (!std::is_same_v<decltype(field), std::monostate>)
                f(field);
        },
        knob.target);
}

inline RunConfig
RunConfig::fromEnv()
{
    for (char **env = environ; *env; ++env) {
        const std::string_view var(*env);
        const std::string_view name = var.substr(0, var.find('='));
        if (name.starts_with("BF_") && !findKnob(name)) {
            std::fprintf(stderr, "unknown knob %.*s (see bench/common.hh)\n",
                         static_cast<int>(name.size()), name.data());
            std::exit(2);
        }
    }
    const std::string level = knob<std::string>("BF_LOG", "warn");
    bf::detail::setLogLevel(level == "quiet"  ? LogLevel::Quiet
                            : level == "info" ? LogLevel::Info
                                              : LogLevel::Warn);
    RunConfig cfg;
    if (knob("BF_FAST", false)) {
        cfg.num_cores = 4;
        cfg.warm_ms = 6;
        cfg.measure_ms = 12;
    }
    for (const Knob &row : knobs) {
        if (!row.name)
            continue;
        // Checks the per-bench knobs too: a bad value fails up front.
        std::string text;
        readKnob(row, text);
        visitTarget(row, [&](auto field) { readKnob(row, cfg.*field); });
    }
    if (cfg.jobs == 0)
        cfg.jobs = defaultWorkers();
    return cfg;
}

inline std::uint64_t
RunConfig::configHash(const core::SystemParams &params) const
{
    std::uint64_t hash = 1469598103934665603ull; // FNV-1a offset
    const auto mix = [&hash](std::uint64_t value) {
        hash ^= value;
        hash *= 1099511628211ull;
    };
    core::forEachParam(params, [&](std::string_view, const auto &value) {
        mix(core::paramBits(value));
    });
    for (const Knob &row : knobs) {
        visitTarget(row, [&](auto field) {
            const auto &value = this->*field;
            if constexpr (std::is_arithmetic_v<
                              std::remove_cvref_t<decltype(value)>>) {
                if (row.hashed)
                    mix(core::paramBits(value));
            }
        });
    }
    return hash;
}

inline BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), enabled_(knob("BF_JSON", true)),
      dir_(knob<std::string>("BF_JSON_DIR", "."))
{}

/**
 * Run independent bench configurations on cfg.workers() threads.
 *
 * Thread-safety contract (see common/parallel.hh): every job builds
 * its own System and writes only its own result slot; nothing shared
 * is mutated. Results are identical to running the jobs serially
 * (BF_JOBS=1) — parallelism only cuts wall-clock.
 */
inline void
runJobs(const RunConfig &cfg, std::vector<std::function<void()>> jobs)
{
    runParallel(jobs.size(), cfg.workers(),
                [&](std::size_t i) { jobs[i](); });
}

/**
 * Stamp the harness configuration into a bench report: every `knobs`
 * row with a report key, in table order. Rows marked report_if_changed
 * (backend) appear only off their default, so reference runs keep
 * the pre-zoo golden config block.
 */
inline void
reportConfig(BenchReport &report, const RunConfig &cfg)
{
    static const RunConfig defaults;
    for (const Knob &row : knobs) {
        visitTarget(row, [&](auto field) {
            const auto &value = cfg.*field;
            using T = std::remove_cvref_t<decltype(value)>;
            if (!row.report ||
                (row.report_if_changed && value == defaults.*field))
                return;
            if constexpr (std::is_same_v<T, std::string>)
                report.config(row.report, value);
            else if constexpr (std::is_same_v<T, translate::BackendKind>)
                report.config(row.report, translate::backendName(value));
            else
                report.config(row.report, static_cast<double>(value));
        });
    }
}

/** Serialize a finished System's stats + time series + cap flag. */
inline RunArtifacts
captureArtifacts(const core::System &sys)
{
    RunArtifacts artifacts;
    artifacts.stats_json = stats::toJsonString(sys.stats());
    artifacts.timeseries_json = sys.sampler().toJsonString();
    artifacts.capped = sys.run_capped.value() > 0;
    artifacts.trace_path = sys.params().trace_path;
    // Sinks are drained at every chunk barrier, so outside run() the
    // registry already holds the canonical totals.
    artifacts.tenants_json = sys.attrib().tenantsJson();
    return artifacts;
}

/**
 * Metrics extracted from one run: a Data Serving or Compute app
 * (runApp) or a group of three functions (runFaas). Fields the run's
 * kind does not produce stay 0.
 */
struct RunResult
{
    double mean_latency = 0;   //!< Cycles per request (serving).
    double tail_latency = 0;   //!< 95th percentile (serving).
    double units_per_ms = 0;   //!< Work-unit throughput (compute).
    double lead_exec = 0;      //!< Leading function (cold), cycles.
    double trail_exec = 0;     //!< Mean of the trailing two, cycles.
    double bringup = 0;        //!< Mean container bring-up, cycles.
    double fork_work = 0;      //!< Kernel fork cycles per container.
    double data_mpki = 0;
    double instr_mpki = 0;
    double data_shared_frac = 0;
    double instr_shared_frac = 0;
    std::uint64_t minor_faults = 0;
    std::uint64_t cow_faults = 0;      //!< Apps only.
    std::uint64_t shared_installs = 0; //!< Apps only.
    std::uint64_t instructions = 0;    //!< Apps only.
    double l2_long_frac = 0; //!< L2 TLB accesses paying the 12-cycle time.
    RunArtifacts artifacts;  //!< Final stats + time series, serialized.
};

/**
 * The Fig. 10 figures of merit of a finished run into @p r: L2-TLB
 * MPKI and the share of L2-TLB hits on shared entries, data and
 * instruction side.
 */
inline void
captureL2TlbRates(const core::System &sys, RunResult &r)
{
    using TS = translate::TranslateStats;
    const auto total = [&sys](auto counter) {
        return sys.totalTranslateStat(counter);
    };
    const auto share = [](std::uint64_t part, std::uint64_t whole) {
        return whole ? static_cast<double>(part) / whole : 0;
    };
    const double ki = sys.totalInstructions() / 1000.0;
    r.data_mpki = total(&TS::l2_data_misses) / ki;
    r.instr_mpki = total(&TS::l2_instr_misses) / ki;
    r.data_shared_frac =
        share(total(&TS::l2_data_shared_hits), total(&TS::l2_data_hits));
    r.instr_shared_frac = share(total(&TS::l2_instr_shared_hits),
                                total(&TS::l2_instr_hits));
}

/**
 * The one place a bench constructs a System. Stamps the execution knobs
 * and, under BF_TRACE, the trace file "<name>-<hash>.trace" into
 * @p params, then turns on the time-series sampler (BF_SAMPLE_MS) and
 * the live per-tenant table (BF_TOP), so every knob a report records
 * reaches every run. Callers set num_cores and the other model fields
 * first: the trace tag hashes the final set.
 */
inline std::unique_ptr<core::System>
makeSystem(core::SystemParams params, const RunConfig &cfg,
           const std::string &name)
{
    cfg.applyExecKnobs(params);
    cfg.applyTraceKnobs(params, name);
    auto sys = std::make_unique<core::System>(params);
    if (cfg.sampleInterval())
        sys->enableSampling(cfg.sampleInterval());
    if (!cfg.top_path.empty())
        sys->enableTopFile(cfg.top_path);
    return sys;
}

/** A co-located application world, ready to run. */
struct AppWorld
{
    std::unique_ptr<core::System> sys;
    /** Boxed: the threads hold a reference to its profile. */
    std::unique_ptr<workloads::AppInstance> app;
    std::vector<std::unique_ptr<core::Thread>> threads;
};

/**
 * Build one application at the paper's co-location level: every core
 * multiplexes containers_per_core containers of the same app, each
 * serving a distinct request stream (container i on core i mod cores).
 */
inline AppWorld
buildAppWorld(const workloads::AppProfile &profile,
              core::SystemParams params, const RunConfig &cfg)
{
    params.num_cores = cfg.num_cores;
    AppWorld w;
    w.sys = makeSystem(params, cfg, profile.name);
    const unsigned n = cfg.num_cores * cfg.containers_per_core;
    w.app = std::make_unique<workloads::AppInstance>(
        workloads::buildApp(w.sys->kernel(), profile, n, cfg.seed));
    w.threads = workloads::makeAppThreads(*w.app, cfg.seed);
    for (unsigned i = 0; i < n; ++i)
        w.sys->addThread(i % cfg.num_cores, w.threads[i].get());
    return w;
}

/** A group of the three functions on one core, not yet launched. */
struct FaasWorld
{
    std::unique_ptr<core::System> sys;
    /** The threads reference its profiles, which a move keeps in place. */
    workloads::FaasGroup group;
    std::vector<std::unique_ptr<workloads::FunctionThread>> threads;
};

/** Build one group of the three functions with dense or sparse inputs. */
inline FaasWorld
buildFaasWorld(core::SystemParams params, bool sparse, const RunConfig &cfg)
{
    params.num_cores = 1;
    // Functions are latency-sensitive; a fine quantum interleaves the
    // three short-lived containers as the FaaS runtime does (their
    // bring-ups genuinely overlap in time).
    params.core.quantum = msToCycles(0.5);
    FaasWorld w;
    w.sys = makeSystem(params, cfg,
                       sparse ? "functions-sparse" : "functions-dense");
    w.group = workloads::buildFaasGroup(
        w.sys->kernel(), workloads::FunctionProfile::all(), cfg.seed);
    for (unsigned i = 0; i < 3; ++i) {
        w.threads.push_back(std::make_unique<workloads::FunctionThread>(
            w.group.profiles[i], w.group.containers[i], sparse,
            cfg.seed + 17 * i));
    }
    return w;
}

/**
 * Launch a FaaS group and run it to completion. The triggering event
 * reaches the leading function first (paper: the leader behaves the
 * same in Baseline and BabelFish due to cold start; the trailing two
 * are measured).
 */
inline void
launchFaas(FaasWorld &w)
{
    w.sys->addThread(0, w.threads[0].get());
    w.sys->run(msToCycles(3));
    w.sys->addThread(0, w.threads[1].get());
    w.sys->addThread(0, w.threads[2].get());
    w.sys->runUntilFinished(msToCycles(4000));
}

/**
 * Warm a freshly-built System, or restore its warm-up checkpoint.
 *
 * The caller has just rebuilt the world deterministically from the same
 * config, so a matching checkpoint (named by checkpointTag, which
 * hashes every state-shaping knob) drops the system into the identical
 * post-warm-up state — stats included — without re-simulating it. A
 * missing or rejected checkpoint falls back to simulating the warm-up,
 * and BF_CKPT saves the post-warm-up checkpoint for later runs.
 */
inline void
warmOrRestore(core::System &sys, const RunConfig &cfg,
              const std::string &name)
{
    const std::string tag = cfg.checkpointTag(name, sys.params());
    bool restored = false;
    if (!cfg.restore_dir.empty())
        restored = sys.restoreCheckpoint(cfg.restore_dir + "/" + tag);
    if (!restored)
        sys.run(msToCycles(cfg.warm_ms));
    if (!cfg.ckpt_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg.ckpt_dir, ec);
        sys.saveCheckpoint(cfg.ckpt_dir + "/" + tag);
    }
}

/**
 * Run one application (buildAppWorld): warm up or restore, then measure
 * request latency or work-unit throughput over cfg.measure_ms.
 */
inline RunResult
runApp(const workloads::AppProfile &profile,
       core::SystemParams params, const RunConfig &cfg)
{
    AppWorld w = buildAppWorld(profile, std::move(params), cfg);
    core::System &sys = *w.sys;

    warmOrRestore(sys, cfg, profile.name);
    sys.resetStats();
    for (auto &thread : w.threads) {
        if (auto *ds =
                dynamic_cast<workloads::DataServingThread *>(thread.get()))
            ds->resetMeasurement();
        if (auto *ct =
                dynamic_cast<workloads::ComputeThread *>(thread.get()))
            ct->resetMeasurement();
    }
    sys.run(msToCycles(cfg.measure_ms));

    RunResult r;
    std::uint64_t units = 0;
    // Aggregate request latencies: mean of per-container means and
    // tails (each container is driven by its own YCSB client, §VI).
    double mean_sum = 0, tail_sum = 0;
    unsigned serving_threads = 0;
    for (auto &thread : w.threads) {
        if (auto *ds = dynamic_cast<workloads::DataServingThread *>(
                thread.get())) {
            if (ds->latency().count() == 0)
                continue;
            mean_sum += ds->latency().mean();
            tail_sum += ds->latency().percentile(95);
            ++serving_threads;
        }
        if (auto *ct = dynamic_cast<workloads::ComputeThread *>(
                thread.get()))
            units += ct->unitsDone();
    }
    if (serving_threads) {
        r.mean_latency = mean_sum / serving_threads;
        r.tail_latency = tail_sum / serving_threads;
    }
    r.units_per_ms = static_cast<double>(units) / cfg.measure_ms;
    r.fork_work = static_cast<double>(w.app->bringup_work) /
                  static_cast<double>(w.threads.size());

    r.instructions = sys.totalInstructions();
    captureL2TlbRates(sys, r);
    r.minor_faults = sys.kernel().minor_faults.value();
    r.cow_faults = sys.kernel().cow_faults.value();
    r.shared_installs = sys.kernel().shared_installs.value();
    std::uint64_t l2_accesses = 0, l2_long = 0;
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        auto &mmu = sys.core(c).mmu();
        l2_accesses += mmu.l2_data_hits.value() +
                       mmu.l2_data_misses.value() +
                       mmu.l2_instr_hits.value() +
                       mmu.l2_instr_misses.value();
        l2_long += mmu.l2_long_accesses.value();
    }
    r.l2_long_frac = l2_accesses
                         ? static_cast<double>(l2_long) / l2_accesses
                         : 0;
    r.artifacts = captureArtifacts(sys);
    return r;
}

/**
 * Run one group of the three functions to completion on one core
 * (multiplexed, as in §VI), with dense or sparse inputs.
 */
inline RunResult
runFaas(core::SystemParams params, bool sparse, const RunConfig &cfg)
{
    FaasWorld w = buildFaasWorld(std::move(params), sparse, cfg);
    launchFaas(w);

    const auto &threads = w.threads;
    const double bringup_work = static_cast<double>(w.group.bringup_work);
    RunResult r;
    r.lead_exec = static_cast<double>(threads[0]->execCycles());
    r.trail_exec = (static_cast<double>(threads[1]->execCycles()) +
                    static_cast<double>(threads[2]->execCycles())) /
                   2.0;
    r.bringup = (static_cast<double>(threads[0]->bringupCycles()) +
                 static_cast<double>(threads[1]->bringupCycles()) +
                 static_cast<double>(threads[2]->bringupCycles())) /
                    3.0 +
                bringup_work / 3.0;
    r.fork_work = bringup_work / 3.0;
    captureL2TlbRates(*w.sys, r);
    r.minor_faults = w.sys->kernel().minor_faults.value();
    r.artifacts = captureArtifacts(*w.sys);
    return r;
}

/** Percentage reduction of b relative to a (positive = b is better). */
inline double
reduction(double base, double other)
{
    return base > 0 ? 100.0 * (1.0 - other / base) : 0.0;
}

/** Print a rule line. */
inline void
rule(char c = '-', int n = 74)
{
    for (int i = 0; i < n; ++i)
        std::putchar(c);
    std::putchar('\n');
}

} // namespace bfbench

#endif // BF_BENCH_COMMON_HH
