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
 * Environment knobs:
 *   BF_FAST=1      quarter-length runs on 4 cores (CI smoke mode).
 *   BF_CORES=n     override the core count.
 *   BF_MEASURE_MS  override the measurement window.
 *   BF_JOBS=n      worker threads for independent configurations
 *                  (default: hardware concurrency; 1 = serial).
 *   BF_WORKERS=n   host threads INSIDE each System: bound phase, fault
 *                  resumes, per-peer probe drains (default 1; stats are
 *                  byte-identical at any value).
 *   BF_BATCH=n     references pulled per Thread::nextBatch call into
 *                  the cores' prefetch buffers (default 16; stats are
 *                  byte-identical at any value, 1 disables batching).
 *   BF_SYNC_CHUNK  lockstep sync-chunk length in cycles (default
 *                  20000; must be > 0).
 *   BF_SAMPLE_MS   time-series sampling period (default 1 ms of
 *                  simulated time; 0 disables sampling).
 *   BF_JSON=0      skip the BENCH_<name>.json report.
 *   BF_JSON_DIR    directory for the JSON report (default ".").
 *   BF_CKPT=dir    save a checkpoint of each co-located app run right
 *                  after warm-up into dir (one file per profile+config).
 *   BF_RESTORE=dir restore the matching warm-up checkpoint instead of
 *                  re-simulating warm-up; a missing/corrupt/mismatched
 *                  file falls back to a cold start with a warning.
 *   BF_CKPT_EVERY_MS  additionally re-save every N simulated ms during
 *                  the run (crash recovery for long runs).
 *   BF_TRACE=dir   record a translation-pipeline event trace of every
 *                  run into dir, one "<profile>-<hash>.trace" file per
 *                  configuration (inspect/convert with tools/bf_trace).
 *                  Trace bytes are identical at every BF_WORKERS.
 *   BF_TRACE_EVENTS  bit mask of traced event types (default: all;
 *                  see common/trace/trace.hh for the bit order).
 *   BF_TRACE_LIMIT   cap on records written per trace (0 = unlimited;
 *                  excess records are counted as dropped).
 *   BF_ATTRIB=0    disable per-container attribution (common/attrib,
 *                  DESIGN.md §17). Default on; the attrib.* stats
 *                  subtree and the per-run `tenants` report section
 *                  disappear when off.
 *   BF_TOP=path    publish the live per-tenant table into this file at
 *                  chunk barriers (watch with tools/bf_top). Host-side
 *                  observability only; note that parallel bench jobs
 *                  share the one file — last writer wins.
 *   BF_LOG=quiet|warn|info  log level (common/logging.hh). Takes
 *                  precedence over the benches' default quieting, so
 *                  `BF_LOG=quiet` also silences warnings and
 *                  `BF_LOG=info` restores inform() output.
 *
 * bench_replay_sweep additionally reads (see its file header):
 *   BF_REPLAY_TRACE=<file>  replay this trace instead of self-recording.
 *   BF_REPLAY_GRID=n        cap on sweep points (default 64).
 */

#ifndef BF_BENCH_COMMON_HH
#define BF_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.hh"
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
    unsigned batch = 16;         //!< Core prefetch batch (BF_BATCH).
    Cycles sync_chunk = 20000;   //!< Lockstep chunk length in cycles.
    std::uint64_t seed = 42;
    std::string ckpt_dir;      //!< BF_CKPT: save post-warm-up state here.
    std::string restore_dir;   //!< BF_RESTORE: load warm-up state from here.
    double ckpt_every_ms = 0;  //!< BF_CKPT_EVERY_MS: periodic autosave.
    std::string trace_dir;     //!< BF_TRACE: event-trace output directory.
    std::uint32_t trace_events = 0xffffffffu; //!< BF_TRACE_EVENTS mask.
    std::uint64_t trace_limit = 0;            //!< BF_TRACE_LIMIT cap.
    bool attrib = true;        //!< BF_ATTRIB: per-container attribution.
    std::string top_path;      //!< BF_TOP: live per-tenant table file.
    /**
     * BF_BACKEND: translation backend for every System the bench
     * builds ("babelfish" | "victima" | "coalesced", DESIGN.md §16).
     * Stamped by applyExecKnobs, so any bench can run head-to-head
     * under a competitor design.
     */
    translate::BackendKind backend = translate::BackendKind::BabelFish;

    static RunConfig
    fromEnv()
    {
        RunConfig cfg;
        if (const char *fast = std::getenv("BF_FAST");
            fast && fast[0] == '1') {
            cfg.num_cores = 4;
            cfg.warm_ms = 6;
            cfg.measure_ms = 12;
        }
        if (const char *cores = std::getenv("BF_CORES"))
            cfg.num_cores = static_cast<unsigned>(std::atoi(cores));
        if (const char *ms = std::getenv("BF_MEASURE_MS"))
            cfg.measure_ms = std::atof(ms);
        if (const char *ms = std::getenv("BF_SAMPLE_MS"))
            cfg.sample_ms = std::atof(ms);
        if (const char *jobs = std::getenv("BF_JOBS"))
            cfg.jobs = static_cast<unsigned>(std::atoi(jobs));
        if (const char *workers = std::getenv("BF_WORKERS"))
            cfg.system_workers =
                std::max(1, std::atoi(workers));
        if (std::getenv("BF_WEAVE_WORKERS")) {
            std::fprintf(stderr, "BF_WEAVE_WORKERS was removed (the weave "
                                 "is no longer sharded); use BF_WORKERS\n");
            std::exit(2);
        }
        if (const char *batch = std::getenv("BF_BATCH"))
            cfg.batch = static_cast<unsigned>(
                std::max(1, std::atoi(batch)));
        if (const char *chunk = std::getenv("BF_SYNC_CHUNK")) {
            const long long value = std::atoll(chunk);
            if (value <= 0) {
                std::fprintf(stderr,
                             "BF_SYNC_CHUNK must be > 0 (got %s)\n",
                             chunk);
                std::exit(2);
            }
            cfg.sync_chunk = static_cast<Cycles>(value);
        }
        if (const char *dir = std::getenv("BF_CKPT"))
            cfg.ckpt_dir = dir;
        if (const char *dir = std::getenv("BF_RESTORE"))
            cfg.restore_dir = dir;
        if (const char *ms = std::getenv("BF_CKPT_EVERY_MS"))
            cfg.ckpt_every_ms = std::atof(ms);
        if (const char *dir = std::getenv("BF_TRACE"))
            cfg.trace_dir = dir;
        if (const char *mask = std::getenv("BF_TRACE_EVENTS"))
            cfg.trace_events = static_cast<std::uint32_t>(
                std::strtoul(mask, nullptr, 0));
        if (const char *limit = std::getenv("BF_TRACE_LIMIT"))
            cfg.trace_limit = std::strtoull(limit, nullptr, 0);
        if (const char *attrib = std::getenv("BF_ATTRIB"))
            cfg.attrib = !(attrib[0] == '0' && attrib[1] == '\0');
        if (const char *top = std::getenv("BF_TOP"))
            cfg.top_path = top;
        if (const char *backend = std::getenv("BF_BACKEND")) {
            if (!translate::parseBackend(backend, cfg.backend)) {
                std::fprintf(stderr,
                             "BF_BACKEND must be babelfish, victima or "
                             "coalesced (got %s)\n",
                             backend);
                std::exit(2);
            }
        }
        return cfg;
    }

    /**
     * FNV-1a hash over every knob that shapes simulated state,
     * including the TLB geometry (so configurations differing only in
     * TLB sizes, like bench_larger_tlb's, get distinct tags).
     * measure_ms, jobs and BF_WORKERS are deliberately excluded: the
     * measurement window happens after a warm-up checkpoint, and the
     * worker count cannot change simulated state (the bound/weave
     * determinism guarantee) — so one tag serves every measurement
     * length and host parallelism level, and trace files produced at
     * different BF_WORKERS land on the same name for byte comparison.
     */
    std::uint64_t
    configHash(const core::SystemParams &params) const
    {
        std::uint64_t hash = 1469598103934665603ull; // FNV-1a offset
        const auto mix = [&hash](std::uint64_t value) {
            hash ^= value;
            hash *= 1099511628211ull;
        };
        const auto mixDouble = [&mix](double value) {
            std::uint64_t bits;
            std::memcpy(&bits, &value, sizeof bits);
            mix(bits);
        };
        mix(params.kernel.babelfish);
        mix(static_cast<std::uint64_t>(params.kernel.max_share_level));
        mix(params.kernel.thp);
        mix(params.kernel.max_cow_writers);
        mix(static_cast<std::uint64_t>(params.kernel.aslr));
        mix(params.kernel.mem_frames);
        mix(params.mmu.babelfish);
        mix(params.mmu.force_long_l2);
        mix(params.mmu.aslr_transform_cycles);
        mix(static_cast<std::uint64_t>(params.mmu.backend));
        const auto mixTlb = [&mix](const tlb::TlbParams &t) {
            mix(t.entries);
            mix(t.assoc);
            mix(static_cast<std::uint64_t>(t.policy));
        };
        mixTlb(params.mmu.l1i_4k);
        mixTlb(params.mmu.l1d_4k);
        mixTlb(params.mmu.l1d_2m);
        mixTlb(params.mmu.l1d_1g);
        mixTlb(params.mmu.l2_4k);
        mixTlb(params.mmu.l2_2m);
        mixTlb(params.mmu.l2_1g);
        mixDouble(params.core.base_cpi);
        mix(params.core.quantum);
        mix(params.core.context_switch_cycles);
        mix(params.num_cores);
        mix(params.sync_chunk);
        // Attribution does not alter simulated state, but it shapes the
        // checkpoint archive (manifest flag + attrib stats subtree), so
        // BF_ATTRIB=0 runs must not restore a with-attrib checkpoint.
        mix(params.attrib);
        mix(params.seed);
        mix(containers_per_core);
        mixDouble(warm_ms);
        mixDouble(sample_ms);
        mix(seed);
        return hash;
    }

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
        params.trace_events = trace_events;
        params.trace_limit = trace_limit;
    }

    /** Stamp the System-execution knobs into a parameter set. */
    void
    applyExecKnobs(core::SystemParams &params) const
    {
        params.workers = system_workers;
        params.sync_chunk = sync_chunk;
        params.core.batch = batch;
        params.mmu.backend = backend;
        params.attrib = attrib;
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

/** Stamp the harness configuration into a bench report. */
inline void
reportConfig(BenchReport &report, const RunConfig &cfg)
{
    report.config("num_cores", cfg.num_cores);
    report.config("containers_per_core", cfg.containers_per_core);
    report.config("warm_ms", cfg.warm_ms);
    report.config("measure_ms", cfg.measure_ms);
    report.config("sample_ms", cfg.sample_ms);
    report.config("jobs", cfg.workers());
    report.config("workers", cfg.system_workers);
    report.config("batch", cfg.batch);
    report.config("sync_chunk", static_cast<double>(cfg.sync_chunk));
    report.config("seed", static_cast<double>(cfg.seed));
    report.config("ckpt_dir", cfg.ckpt_dir);
    report.config("restore_dir", cfg.restore_dir);
    report.config("ckpt_every_ms", cfg.ckpt_every_ms);
    report.config("trace", cfg.trace_dir);
    report.config("trace_events", static_cast<double>(cfg.trace_events));
    report.config("trace_limit", static_cast<double>(cfg.trace_limit));
    // Only tag non-reference backends: the reference (default) output
    // must stay byte-identical to pre-zoo golden files.
    if (cfg.backend != translate::BackendKind::BabelFish)
        report.config("backend",
                      std::string(translate::backendName(cfg.backend)));
    // Same idea for attribution: tagged only when disabled.
    if (!cfg.attrib)
        report.config("attrib", 0.0);
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
    if (const auto *attrib = sys.attrib())
        artifacts.tenants_json = attrib->tenantsJson();
    return artifacts;
}

/**
 * Warm a freshly-built System, or restore its warm-up checkpoint.
 *
 * The caller has just rebuilt the world deterministically from the same
 * config, so a matching checkpoint (named by checkpointTag, which
 * hashes every state-shaping knob) drops the system into the identical
 * post-warm-up state — stats included — without re-simulating it. A
 * missing or rejected checkpoint falls back to simulating the warm-up,
 * and BF_CKPT / BF_CKPT_EVERY_MS save checkpoints for later runs.
 */
inline void
warmOrRestore(core::System &sys, const RunConfig &cfg,
              const std::string &name, const core::SystemParams &params)
{
    const std::string tag = cfg.checkpointTag(name, params);
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
    if (cfg.ckpt_every_ms > 0) {
        const std::string dir =
            cfg.ckpt_dir.empty() ? std::string(".") : cfg.ckpt_dir;
        sys.enableAutoCheckpoint(dir + "/autosave-" + tag,
                                 msToCycles(cfg.ckpt_every_ms));
    }
}

/** Metrics extracted from one Data Serving / Compute run. */
struct AppRunResult
{
    double mean_latency = 0;   //!< Cycles per request (serving).
    double tail_latency = 0;   //!< 95th percentile (serving).
    double units_per_ms = 0;   //!< Work-unit throughput (compute).
    double data_mpki = 0;
    double instr_mpki = 0;
    double data_shared_frac = 0;
    double instr_shared_frac = 0;
    std::uint64_t minor_faults = 0;
    std::uint64_t cow_faults = 0;
    std::uint64_t shared_installs = 0;
    std::uint64_t instructions = 0;
    double l2_long_frac = 0; //!< L2 TLB accesses paying the 12-cycle time.
    RunArtifacts artifacts;  //!< Final stats + time series, serialized.
};

/**
 * Run one application at the paper's co-location level: every core
 * multiplexes containers_per_core containers of the same app, each
 * serving a distinct request stream.
 */
inline AppRunResult
runApp(const workloads::AppProfile &profile,
       core::SystemParams params, const RunConfig &cfg)
{
    params.num_cores = cfg.num_cores;
    cfg.applyExecKnobs(params);
    cfg.applyTraceKnobs(params, profile.name);
    core::System sys(params);
    if (cfg.sampleInterval())
        sys.enableSampling(cfg.sampleInterval());
    if (!cfg.top_path.empty())
        sys.enableTopFile(cfg.top_path);

    const unsigned n = cfg.num_cores * cfg.containers_per_core;
    auto app = workloads::buildApp(sys.kernel(), profile, n, cfg.seed);
    auto threads = workloads::makeAppThreads(app, cfg.seed);
    for (unsigned i = 0; i < n; ++i)
        sys.addThread(i % cfg.num_cores, threads[i].get());

    warmOrRestore(sys, cfg, profile.name, params);
    sys.resetStats();
    for (auto &thread : threads) {
        if (auto *ds =
                dynamic_cast<workloads::DataServingThread *>(thread.get()))
            ds->resetMeasurement();
        if (auto *ct =
                dynamic_cast<workloads::ComputeThread *>(thread.get()))
            ct->resetMeasurement();
    }
    sys.run(msToCycles(cfg.measure_ms));

    AppRunResult r;
    std::uint64_t units = 0;
    // Aggregate request latencies: mean of per-container means and
    // tails (each container is driven by its own YCSB client, §VI).
    double mean_sum = 0, tail_sum = 0;
    unsigned serving_threads = 0;
    for (auto &thread : threads) {
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

    const double ki = sys.totalInstructions() / 1000.0;
    r.instructions = sys.totalInstructions();
    r.data_mpki = sys.totalL2TlbMisses(false) / ki;
    r.instr_mpki = sys.totalL2TlbMisses(true) / ki;
    const auto dh = sys.totalL2TlbHits(false);
    const auto ih = sys.totalL2TlbHits(true);
    r.data_shared_frac =
        dh ? static_cast<double>(sys.totalL2TlbSharedHits(false)) / dh : 0;
    r.instr_shared_frac =
        ih ? static_cast<double>(sys.totalL2TlbSharedHits(true)) / ih : 0;
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

/** Result of one FaaS group run (per paper: 3 functions per core). */
struct FaasRunResult
{
    double lead_exec = 0;      //!< Leading function (cold), cycles.
    double trail_exec = 0;     //!< Mean of the trailing two, cycles.
    double bringup = 0;        //!< Mean container bring-up, cycles.
    double fork_work = 0;      //!< Kernel fork cycles per container.
    double data_mpki = 0;
    double instr_mpki = 0;
    double data_shared_frac = 0;
    double instr_shared_frac = 0;
    std::uint64_t minor_faults = 0;
    RunArtifacts artifacts;  //!< Final stats + time series, serialized.
};

/**
 * Run one group of the three functions to completion on one core
 * (multiplexed, as in §VI), with dense or sparse inputs.
 */
inline FaasRunResult
runFaas(core::SystemParams params, bool sparse, const RunConfig &cfg)
{
    params.num_cores = 1;
    cfg.applyExecKnobs(params);
    // Functions are latency-sensitive; a fine quantum interleaves the
    // three short-lived containers as the FaaS runtime does (their
    // bring-ups genuinely overlap in time).
    params.core.quantum = msToCycles(0.5);
    cfg.applyTraceKnobs(params,
                        sparse ? "functions-sparse" : "functions-dense");
    core::System sys(params);
    if (cfg.sampleInterval())
        sys.enableSampling(cfg.sampleInterval());
    if (!cfg.top_path.empty())
        sys.enableTopFile(cfg.top_path);

    auto group = workloads::buildFaasGroup(
        sys.kernel(), workloads::FunctionProfile::all(), cfg.seed);
    std::vector<std::unique_ptr<workloads::FunctionThread>> threads;
    for (unsigned i = 0; i < 3; ++i) {
        threads.push_back(std::make_unique<workloads::FunctionThread>(
            group.profiles[i], group.containers[i], sparse,
            cfg.seed + 17 * i));
    }
    // The triggering event reaches the leading function first (paper:
    // the leader behaves the same in Baseline and BabelFish due to cold
    // start; the trailing two are measured).
    sys.addThread(0, threads[0].get());
    sys.run(msToCycles(3));
    sys.addThread(0, threads[1].get());
    sys.addThread(0, threads[2].get());
    sys.runUntilFinished(msToCycles(4000));

    FaasRunResult r;
    r.lead_exec = static_cast<double>(threads[0]->execCycles());
    r.trail_exec = (static_cast<double>(threads[1]->execCycles()) +
                    static_cast<double>(threads[2]->execCycles())) /
                   2.0;
    r.bringup = (static_cast<double>(threads[0]->bringupCycles()) +
                 static_cast<double>(threads[1]->bringupCycles()) +
                 static_cast<double>(threads[2]->bringupCycles())) /
                    3.0 +
                static_cast<double>(group.bringup_work) / 3.0;
    r.fork_work = static_cast<double>(group.bringup_work) / 3.0;
    const double ki = sys.totalInstructions() / 1000.0;
    r.data_mpki = sys.totalL2TlbMisses(false) / ki;
    r.instr_mpki = sys.totalL2TlbMisses(true) / ki;
    const auto dh = sys.totalL2TlbHits(false);
    const auto ih = sys.totalL2TlbHits(true);
    r.data_shared_frac =
        dh ? static_cast<double>(sys.totalL2TlbSharedHits(false)) / dh : 0;
    r.instr_shared_frac =
        ih ? static_cast<double>(sys.totalL2TlbSharedHits(true)) / ih : 0;
    r.minor_faults = sys.kernel().minor_faults.value();
    r.artifacts = captureArtifacts(sys);
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
