/**
 * @file
 * Machine-readable bench output: every bench binary writes a
 * BENCH_<name>.json next to its stdout tables so the perf trajectory
 * can be tracked PR-over-PR without scraping text.
 *
 * Schema (version 3; see README.md "Reading the stats output"):
 *
 *   {
 *     "schema_version": 3,
 *     "bench": "<name>",
 *     "config": { "<knob>": <number|string>, ... },
 *     "metrics": { "<headline metric>": <number>, ... },
 *     "capped_runs": <number of runs that hit the cycle cap>,
 *     "runs": {
 *       "<label>": {
 *         "capped": <bool>,
 *         "trace_file": "<path or empty when tracing was off>",
 *         "stats": { <stats::toJson of the System tree> },
 *         "timeseries": { <StatSampler::toJson> },
 *         "tenants": [ <attrib::Registry::tenantsJson rows: one object
 *                       per container with the per-tenant counters,
 *                       miss-latency percentiles, interference scalars
 *                       and evicted-by maps> ]
 *       }, ...
 *     },
 *     "series": {
 *       "<name>": { "x_label": "...", "y_label": "...",
 *                   "points": [[x, y], ...] }, ...
 *     },
 *     "host": {
 *       "<label>": { "host_seconds": <number>, "sim_mips": <number>,
 *                    "phases": { "bound": <number>, "fault": <number>,
 *                                "fault_service": <number>,
 *                                "merge": <number>, "weave": <number> } },
 *       ...
 *     },
 *     "notes": { "<key>": <number>, ... }
 *   }
 *
 * Version 2 added the host-speed section ("host": wall-clock seconds and
 * simulated MIPS per workload, written by bench_simspeed) and free-form
 * "notes" (host-side bookkeeping such as bench_replay_sweep's
 * fullsim_point_seconds). Version 3 records
 * external artifact paths per run ("trace_file": the BF_TRACE event
 * trace; the time series stays embedded under "timeseries") and the
 * effective values of every BF_* execution knob under "config". All
 * additions are additive; the architectural stats under "runs" are
 * unchanged. The optional per-phase host breakdown under each host row
 * ("phases": seconds spent in the bound / fault-service / merge / weave
 * stages of the chunk loop, from System::phaseTimes) is likewise an
 * additive v3 field — absent when the bench did not collect it; its
 * "fault_service" member (the single-threaded part of "fault", added
 * later) is absent from older reports.
 *
 * BF_JSON=0 disables the file; BF_JSON_DIR=<dir> redirects it (default:
 * the current directory).
 */

#ifndef BF_BENCH_REPORT_HH
#define BF_BENCH_REPORT_HH

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats_export.hh"
#include "core/system.hh"

namespace bfbench
{

/** Serialized observability output of one simulation run. */
struct RunArtifacts
{
    std::string stats_json;      //!< stats::toJson of the final tree.
    std::string timeseries_json; //!< StatSampler::toJson.
    std::string trace_path;      //!< Event-trace file ("" = tracing off).
    std::string tenants_json;    //!< attrib::Registry::tenantsJson
                                 //!< ("" = a replay run: no tenants).
    bool capped = false;         //!< Run hit the runUntilFinished cap.
};

/** Accumulates one bench's results and writes BENCH_<name>.json. */
class BenchReport
{
  public:
    /** Reads BF_JSON / BF_JSON_DIR (defined after the knob table). */
    explicit BenchReport(std::string name);

    bool enabled() const { return enabled_; }

    /** Output path: <BF_JSON_DIR>/BENCH_<name>.json */
    std::string
    path() const
    {
        return dir_ + "/BENCH_" + name_ + ".json";
    }

    /** Record a configuration knob. */
    void
    config(const std::string &key, double value)
    {
        config_.emplace_back(key, bf::stats::jsonNumber(value));
    }

    void
    config(const std::string &key, const std::string &value)
    {
        config_.emplace_back(
            key, std::string("\"")
                     .append(bf::stats::jsonEscape(value))
                     .append("\""));
    }

    /** Record a headline metric (one number the tables also print). */
    void
    metric(const std::string &name, double value)
    {
        metrics_.emplace_back(name, value);
    }

    /**
     * Record a host-speed measurement: wall-clock seconds of simulation,
     * the resulting simulated MIPS (instructions per host-second / 1e6)
     * and the per-phase breakdown of where those seconds went
     * (System::phaseTimes — bound / fault / merge / weave, and the
     * single-threaded service loops inside fault). These fields
     * describe the *simulator's* throughput, never the modeled
     * machine, so they are exempt from golden-stats diffs.
     */
    void
    hostPhases(const std::string &label, double host_seconds,
               double sim_mips, const bf::core::System::PhaseTimes &phases)
    {
        host_.push_back({ label, host_seconds, sim_mips, phases });
    }

    /** Record a free-form note (e.g.\ fullsim_point_seconds). */
    void
    note(const std::string &key, double value)
    {
        notes_.emplace_back(key, bf::stats::jsonNumber(value));
    }

    /** Record one run's full stats + time series under a label. */
    void
    addRun(const std::string &label, const RunArtifacts &artifacts)
    {
        runs_.emplace_back(label, artifacts);
        if (artifacts.capped)
            ++capped_runs_;
    }

    /**
     * Record an analytic series (parameter sweeps of benches that do
     * not run a System, e.g. the CactiLite area-vs-entries curve).
     */
    void
    addSeries(const std::string &name, const std::string &x_label,
              const std::string &y_label,
              const std::vector<std::pair<double, double>> &points)
    {
        series_.push_back({ name, x_label, y_label, points });
    }

    /**
     * Write the JSON file and surface truncated runs on stdout. Call
     * once, after the tables are printed.
     */
    void
    write() const
    {
        if (capped_runs_) {
            std::printf("WARNING: %u run(s) hit the runUntilFinished "
                        "cycle cap; their results are truncated, not "
                        "converged\n",
                        capped_runs_);
        }
        if (!enabled_)
            return;
        std::ofstream os(path());
        if (!os) {
            std::fprintf(stderr, "could not write %s\n", path().c_str());
            return;
        }
        os << "{\"schema_version\":3,\"bench\":\""
           << bf::stats::jsonEscape(name_) << "\",\"config\":{";
        bool first = true;
        for (const auto &[key, value] : config_) {
            os << (first ? "" : ",") << '"' << bf::stats::jsonEscape(key)
               << "\":" << value;
            first = false;
        }
        os << "},\"metrics\":{";
        first = true;
        for (const auto &[key, value] : metrics_) {
            os << (first ? "" : ",") << '"' << bf::stats::jsonEscape(key)
               << "\":" << bf::stats::jsonNumber(value);
            first = false;
        }
        os << "},\"capped_runs\":" << capped_runs_ << ",\"runs\":{";
        first = true;
        for (const auto &[label, artifacts] : runs_) {
            os << (first ? "" : ",") << '"'
               << bf::stats::jsonEscape(label) << "\":{\"capped\":"
               << (artifacts.capped ? "true" : "false")
               << ",\"trace_file\":\""
               << bf::stats::jsonEscape(artifacts.trace_path)
               << "\",\"stats\":"
               << (artifacts.stats_json.empty() ? "{}"
                                                : artifacts.stats_json)
               << ",\"timeseries\":"
               << (artifacts.timeseries_json.empty()
                       ? "{}"
                       : artifacts.timeseries_json)
               << ",\"tenants\":"
               << (artifacts.tenants_json.empty() ? "[]"
                                                  : artifacts.tenants_json)
               << '}';
            first = false;
        }
        os << "},\"series\":{";
        first = true;
        for (const auto &s : series_) {
            os << (first ? "" : ",") << '"'
               << bf::stats::jsonEscape(s.name) << "\":{\"x_label\":\""
               << bf::stats::jsonEscape(s.x_label) << "\",\"y_label\":\""
               << bf::stats::jsonEscape(s.y_label) << "\",\"points\":[";
            bool pfirst = true;
            for (const auto &[x, y] : s.points) {
                os << (pfirst ? "" : ",") << '['
                   << bf::stats::jsonNumber(x) << ','
                   << bf::stats::jsonNumber(y) << ']';
                pfirst = false;
            }
            os << "]}";
            first = false;
        }
        os << "},\"host\":{";
        first = true;
        for (const auto &h : host_) {
            os << (first ? "" : ",") << '"'
               << bf::stats::jsonEscape(h.label) << "\":{\"host_seconds\":"
               << bf::stats::jsonNumber(h.host_seconds) << ",\"sim_mips\":"
               << bf::stats::jsonNumber(h.sim_mips)
               << ",\"phases\":{\"bound\":"
               << bf::stats::jsonNumber(h.phases.bound_seconds)
               << ",\"fault\":"
               << bf::stats::jsonNumber(h.phases.fault_seconds)
               << ",\"fault_service\":"
               << bf::stats::jsonNumber(h.phases.fault_service_seconds)
               << ",\"merge\":"
               << bf::stats::jsonNumber(h.phases.merge_seconds)
               << ",\"weave\":"
               << bf::stats::jsonNumber(h.phases.weave_seconds) << "}}";
            first = false;
        }
        os << "},\"notes\":{";
        first = true;
        for (const auto &[key, value] : notes_) {
            os << (first ? "" : ",") << '"' << bf::stats::jsonEscape(key)
               << "\":" << value;
            first = false;
        }
        os << "}}\n";
        std::printf("wrote %s\n", path().c_str());
    }

  private:
    struct Series
    {
        std::string name;
        std::string x_label;
        std::string y_label;
        std::vector<std::pair<double, double>> points;
    };

    struct HostSpeed
    {
        std::string label;
        double host_seconds = 0;
        double sim_mips = 0;
        bf::core::System::PhaseTimes phases;
    };

    std::string name_;
    bool enabled_;
    std::string dir_;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, RunArtifacts>> runs_;
    std::vector<Series> series_;
    std::vector<HostSpeed> host_;
    std::vector<std::pair<std::string, std::string>> notes_;
    unsigned capped_runs_ = 0;
};

} // namespace bfbench

#endif // BF_BENCH_REPORT_HH
