/**
 * @file
 * The paper's §VII evaluation in one run (DESIGN.md §3, E2–E5, E7, E8):
 *
 *   bench_paper [figure...]        no argument: all six figures
 *
 * One cell table holds the 7 workloads × 4 configs the figures compare;
 * each figure row names the configs it reads and its printer. The union
 * of the selected figures' cells runs once, in one runJobs; then each
 * selected printer prints its table and adds its metrics to the one
 * report. Cells are independent Systems, so a cell's stats are the same
 * at any BF_JOBS and whichever figures select it. An unknown figure
 * exits 2 before any cell runs. One selected figure writes
 * BENCH_<figure>.json; any other selection writes BENCH_paper.json.
 */

#include <algorithm>
#include <array>
#include <optional>
#include <string_view>

#include "analysis/cacti_lite.hh"
#include "bench/common.hh"

using namespace bfbench;

namespace
{

/**
 * PtOnly: fused page tables under a PCID-tagged TLB (Table II).
 * LargerTlb: BabelFish's area spent on a conventional L2 TLB (§VII-C).
 */
enum Config : unsigned { Baseline, BabelFish, PtOnly, LargerTlb, kNumConfigs };

const char *const kConfigNames[kNumConfigs] = { "baseline", "babelfish",
                                                "pt_only", "larger_tlb" };

/** Baseline with the L2 TLB grown to BabelFish's area (CactiLite). */
core::SystemParams
largerTlbParams()
{
    core::SystemParams params = core::SystemParams::baseline();
    params.mmu.l2_4k.entries = params.mmu.l2_2m.entries =
        static_cast<unsigned>(
            analysis::CactiLite().equalAreaConventionalEntries());
    return params;
}

enum class Kind { Serving, Compute, Function };

/** One workload row: a co-located app or a group of three functions. */
struct Workload
{
    std::string name;
    Kind kind;
    workloads::AppProfile app{}; //!< Serving and Compute.
    bool sparse = false;         //!< Function groups: sparse inputs.
};

std::vector<Workload>
allWorkloads()
{
    std::vector<Workload> all;
    for (auto &p : workloads::AppProfile::dataServing())
        all.push_back({ p.name, Kind::Serving, p });
    for (auto &p : workloads::AppProfile::compute())
        all.push_back({ p.name, Kind::Compute, p });
    all.push_back({ "fn-dense", Kind::Function });
    all.push_back({ "fn-sparse", Kind::Function, {}, true });
    return all;
}

/**
 * The cost Fig. 11, Table II and §VII-C reduce: mean request latency,
 * time per work unit (compute) or the trailing functions' exec time.
 */
double
cost(const Workload &w, const RunResult &c)
{
    return w.kind == Kind::Serving   ? c.mean_latency
           : w.kind == Kind::Compute ? 1.0 / c.units_per_ms
                                     : c.trail_exec;
}

using Row = std::array<RunResult, kNumConfigs>;

/** The cell table: one row per workload, one cell per config. */
struct Table
{
    std::vector<Workload> workloads = allWorkloads();
    std::vector<Row> rows = std::vector<Row>(workloads.size());
    unsigned larger_tlb_entries = 0;

    /** Call f(workload, row) in order: every workload, or @p kind's. */
    template <class F>
    void
    forEach(std::optional<Kind> kind, F f) const
    {
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            if (!kind || workloads[i].kind == kind)
                f(workloads[i], rows[i]);
        }
    }
};

void
printFig10a(const Table &t, BenchReport &report)
{
    std::printf("Fig. 10a — L2 TLB MPKI reduction under BabelFish\n");
    rule();
    std::printf("%-12s %10s %10s %8s | %9s %9s %8s\n", "workload",
                "dMPKI(b)", "dMPKI(bf)", "d-red%", "iMPKI(b)",
                "iMPKI(bf)", "i-red%");
    rule();
    double dsum = 0, isum = 0;
    unsigned count = 0;
    t.forEach(std::nullopt, [&](const Workload &w, const Row &row) {
        const RunResult &b = row[Baseline], &f = row[BabelFish];
        const double dr = reduction(b.data_mpki, f.data_mpki);
        const double ir = reduction(b.instr_mpki, f.instr_mpki);
        std::printf("%-12s %10.4f %10.4f %7.1f%% | %9.5f %9.5f %7.1f%%\n",
                    w.name.c_str(), b.data_mpki, f.data_mpki, dr,
                    b.instr_mpki, f.instr_mpki, ir);
        dsum += dr;
        isum += ir;
        ++count;
        report.metric(w.name + ".data_mpki_reduction_pct", dr);
        report.metric(w.name + ".instr_mpki_reduction_pct", ir);
    });
    rule();
    std::printf("mean reduction: data %.1f%%, instruction %.1f%%\n",
                dsum / count, isum / count);
    std::printf("(paper: data serving −66%% data / −96%% instruction; "
                "functions see smaller reductions)\n");
    report.metric("mean.data_mpki_reduction_pct", dsum / count);
    report.metric("mean.instr_mpki_reduction_pct", isum / count);
}

void
printFig10b(const Table &t, BenchReport &report)
{
    std::printf("Fig. 10b — Shared Hits fraction of all L2 TLB hits "
                "(BabelFish)\n");
    rule();
    std::printf("%-12s %12s %12s\n", "workload", "data", "instruction");
    rule();
    t.forEach(std::nullopt, [&](const Workload &w, const Row &row) {
        const double data = 100.0 * row[BabelFish].data_shared_frac;
        const double instr = 100.0 * row[BabelFish].instr_shared_frac;
        std::printf("%-12s %11.1f%% %11.1f%%\n", w.name.c_str(), data,
                    instr);
        report.metric(w.name + ".data_shared_pct", data);
        report.metric(w.name + ".instr_shared_pct", instr);
    });
    rule();
    std::printf("(paper: sizable, pattern-dependent; e.g. GraphChi "
                "~48%% instruction / ~12%% data)\n");
}

void
printFig11(const Table &t, BenchReport &report)
{
    std::printf("Fig. 11 — Latency/time reduction attained by "
                "BabelFish\n");
    rule();
    std::printf("%-12s %12s %12s %9s %9s\n", "data serving", "mean(b)",
                "mean(bf)", "mean-red", "tail-red");
    rule();
    double mean_sum = 0, tail_sum = 0;
    unsigned serving = 0;
    t.forEach(Kind::Serving, [&](const Workload &w, const Row &row) {
        const RunResult &base = row[Baseline], &fish = row[BabelFish];
        const double mr = reduction(base.mean_latency, fish.mean_latency);
        const double tr = reduction(base.tail_latency, fish.tail_latency);
        std::printf("%-12s %12.0f %12.0f %8.1f%% %8.1f%%\n",
                    w.name.c_str(), base.mean_latency, fish.mean_latency,
                    mr, tr);
        mean_sum += mr;
        tail_sum += tr;
        ++serving;
        report.metric(w.name + ".mean_reduction_pct", mr);
        report.metric(w.name + ".tail_reduction_pct", tr);
    });
    std::printf("%-12s (cycles/request)        mean %5.1f%%  tail %5.1f%%"
                "   (paper: 11%% / 18%%)\n",
                "average", mean_sum / serving, tail_sum / serving);
    report.metric("serving.mean_reduction_pct", mean_sum / serving);
    report.metric("serving.tail_reduction_pct", tail_sum / serving);
    rule();
    std::printf("%-12s %12s %12s %9s\n", "compute", "units/ms(b)",
                "units/ms(bf)", "time-red");
    rule();
    double comp_sum = 0;
    unsigned compute = 0;
    t.forEach(Kind::Compute, [&](const Workload &w, const Row &row) {
        const RunResult &base = row[Baseline], &fish = row[BabelFish];
        const double tr = reduction(cost(w, base), cost(w, fish));
        std::printf("%-12s %12.1f %12.1f %8.1f%%\n", w.name.c_str(),
                    base.units_per_ms, fish.units_per_ms, tr);
        comp_sum += tr;
        ++compute;
        report.metric(w.name + ".time_reduction_pct", tr);
    });
    std::printf("%-12s execution time reduction %5.1f%%   "
                "(paper: 11%%)\n",
                "average", comp_sum / compute);
    report.metric("compute.time_reduction_pct", comp_sum / compute);
    rule();
    std::printf("%-12s %12s %12s %9s\n", "functions", "exec(b) Mcyc",
                "exec(bf) Mcyc", "time-red");
    rule();
    t.forEach(Kind::Function, [&](const Workload &w, const Row &row) {
        const RunResult &base = row[Baseline], &fish = row[BabelFish];
        const double tr = reduction(base.trail_exec, fish.trail_exec);
        std::printf("%-12s %12.2f %12.2f %8.1f%%\n",
                    w.sparse ? "sparse" : "dense", base.trail_exec / 1e6,
                    fish.trail_exec / 1e6, tr);
        report.metric(w.name + ".time_reduction_pct", tr);
    });
    std::printf("(paper: dense −10%%, sparse −55%%)\n");
}

void
printTable2(const Table &t, BenchReport &report)
{
    std::printf("Table II — Fraction of time reduction due to L2 TLB "
                "effects\n");
    rule();
    std::printf("%-12s %10s %10s %10s %8s\n", "workload", "gain-full",
                "gain-pt", "gain-tlb", "frac-tlb");
    rule();
    t.forEach(std::nullopt, [&](const Workload &w, const Row &row) {
        const double base = cost(w, row[Baseline]);
        const double gain_full = reduction(base, cost(w, row[BabelFish]));
        const double gain_pt = reduction(base, cost(w, row[PtOnly]));
        const double frac =
            gain_full > 0
                ? std::clamp((gain_full - gain_pt) / gain_full, 0.0, 1.0)
                : 0.0;
        std::printf("%-12s %9.1f%% %9.1f%% %9.1f%% %8.2f\n",
                    w.name.c_str(), gain_full, gain_pt,
                    gain_full - gain_pt, frac);
        report.metric(w.name + ".frac_tlb", frac);
    });
    rule();
    std::printf("(paper fractions: Mongo 0.77, Arango 0.25, HTTPd 0.81, "
                "Compute avg 0.20,\n dense fns avg 0.20, sparse fns avg "
                "0.01 — sparse gains are almost all page-table effects)\n");
}

void
printLargerTlb(const Table &t, BenchReport &report)
{
    std::printf("§VII-C — BabelFish vs an equal-area larger conventional "
                "L2 TLB (%u entries)\n",
                t.larger_tlb_entries);
    rule();
    std::printf("%-12s %12s %12s\n", "workload", "larger-TLB",
                "BabelFish");
    rule();

    // One row's reductions: larger TLB and BabelFish against baseline.
    const auto reductions = [&](const Workload &w, const Row &row) {
        const double base = cost(w, row[Baseline]);
        const double rl = reduction(base, cost(w, row[LargerTlb]));
        const double rb = reduction(base, cost(w, row[BabelFish]));
        report.metric(w.name + ".larger_tlb_reduction_pct", rl);
        report.metric(w.name + ".babelfish_reduction_pct", rb);
        return std::pair(rl, rb);
    };
    struct Section
    {
        Kind kind;
        const char *what, *average, *paper;
    };
    for (const Section &s :
         { Section{ Kind::Serving, "(mean latency)", "serving avg",
                    "2.1% vs 11%" },
           Section{ Kind::Compute, "(execution time)", "compute avg",
                    "0.6% vs 11%" } }) {
        double sum_l = 0, sum_b = 0;
        unsigned n = 0;
        t.forEach(s.kind, [&](const Workload &w, const Row &row) {
            const auto [rl, rb] = reductions(w, row);
            std::printf("%-12s %11.1f%% %11.1f%%   %s\n", w.name.c_str(),
                        rl, rb, s.what);
            sum_l += rl;
            sum_b += rb;
            ++n;
        });
        std::printf("%-12s %11.1f%% %11.1f%%   (paper: %s)\n", s.average,
                    sum_l / n, sum_b / n, s.paper);
        rule();
    }
    t.forEach(Kind::Function, [&](const Workload &w, const Row &row) {
        const auto [rl, rb] = reductions(w, row);
        std::printf("%-12s %11.1f%% %11.1f%%   (paper: %s)\n",
                    w.name.c_str(), rl, rb,
                    w.sparse ? "0.3% vs 55%" : "1.1% vs 10%");
    });
}

void
printBringup(const Table &t, BenchReport &report)
{
    std::printf("§VII-C — Function container bring-up time\n");
    rule();
    std::printf("%-12s %14s %14s %14s\n", "config", "fork Kcyc",
                "init Mcyc", "total Mcyc");
    t.forEach(Kind::Function, [&](const Workload &w, const Row &row) {
        if (w.sparse)
            return;
        for (Config c : { Baseline, BabelFish }) {
            const RunResult &r = row[c];
            const std::string label =
                c == BabelFish ? "BabelFish" : "Baseline";
            std::printf("%-12s %14.1f %14.3f %14.3f\n", label.c_str(),
                        r.fork_work / 1e3, (r.bringup - r.fork_work) / 1e6,
                        r.bringup / 1e6);
            report.metric(label + ".bringup_cycles", r.bringup);
            report.metric(label + ".fork_cycles", r.fork_work);
        }
        rule();
        const double red =
            reduction(row[Baseline].bringup, row[BabelFish].bringup);
        std::printf("bring-up time reduction: %.1f%%   (paper: 8%%)\n",
                    red);
        report.metric("bringup_reduction_pct", red);
    });
}

/** One figure: its report name, the cells it reads and its printer. */
struct Figure
{
    const char *name;
    std::vector<Config> configs;
    void (*print)(const Table &, BenchReport &);
    const char *only = nullptr; //!< The one workload it reads, else all.

    bool
    reads(const Workload &w, Config c) const
    {
        return (!only || w.name == only) &&
               std::ranges::find(configs, c) != configs.end();
    }
};

const Figure kFigures[] = {
    { "fig10a_mpki", { Baseline, BabelFish }, printFig10a },
    { "fig10b_shared_hits", { BabelFish }, printFig10b },
    { "fig11_performance", { Baseline, BabelFish }, printFig11 },
    { "table2_attribution", { Baseline, PtOnly, BabelFish }, printTable2 },
    { "larger_tlb", { Baseline, LargerTlb, BabelFish }, printLargerTlb },
    { "bringup", { Baseline, BabelFish }, printBringup, "fn-dense" },
};

} // namespace

int
main(int argc, char **argv)
{
    // Each named figure once, in argument order; none named: all six.
    std::vector<const Figure *> selected;
    for (int i = 1; i < argc; ++i) {
        const Figure *fig = std::ranges::find(
            kFigures, std::string_view(argv[i]),
            [](const Figure &f) { return std::string_view(f.name); });
        if (fig == std::end(kFigures)) {
            std::fprintf(stderr, "bench_paper: unknown figure '%s'; one of:",
                         argv[i]);
            for (const Figure &f : kFigures)
                std::fprintf(stderr, " %s", f.name);
            std::fprintf(stderr, "\n");
            return 2;
        }
        if (std::ranges::find(selected, fig) == selected.end())
            selected.push_back(fig);
    }
    if (selected.empty()) {
        for (const Figure &f : kFigures)
            selected.push_back(&f);
    }

    const RunConfig cfg = RunConfig::fromEnv();
    BenchReport report(selected.size() == 1 ? selected[0]->name : "paper");
    reportConfig(report, cfg);

    // The union of the selected figures' cells, workload-major.
    Table t;
    std::vector<std::pair<std::size_t, Config>> cells;
    for (std::size_t w = 0; w < t.workloads.size(); ++w) {
        for (Config c : { Baseline, BabelFish, PtOnly, LargerTlb }) {
            if (std::ranges::any_of(selected, [&](const Figure *fig) {
                    return fig->reads(t.workloads[w], c);
                }))
                cells.emplace_back(w, c);
        }
    }
    const core::SystemParams params[kNumConfigs] = {
        core::SystemParams::baseline(), core::SystemParams::babelfish(),
        core::SystemParams::pageTableSharingOnly(), largerTlbParams()
    };
    t.larger_tlb_entries = params[LargerTlb].mmu.l2_4k.entries;
    if (std::ranges::any_of(cells, [](auto cell) {
            return cell.second == LargerTlb;
        }))
        report.config("larger_tlb_entries", t.larger_tlb_entries);

    // Every cell is an independent System writing only its own slot.
    std::vector<std::function<void()>> jobs;
    for (const auto &[w, c] : cells) {
        jobs.push_back([&t, &params, &cfg, w = w, c = c] {
            const Workload &wl = t.workloads[w];
            t.rows[w][c] = wl.kind == Kind::Function
                               ? runFaas(params[c], wl.sparse, cfg)
                               : runApp(wl.app, params[c], cfg);
        });
    }
    runJobs(cfg, std::move(jobs));
    for (const auto &[w, c] : cells) {
        report.addRun(t.workloads[w].name + "." + kConfigNames[c],
                      t.rows[w][c].artifacts);
    }
    for (std::size_t i = 0; i < selected.size(); ++i) {
        if (i)
            std::printf("\n");
        selected[i]->print(t, report);
    }
    report.write();
    return 0;
}
