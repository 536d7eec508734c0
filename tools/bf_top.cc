/**
 * @file
 * bf_top — live (or post-hoc) per-container view of a BabelFish run
 * (DESIGN.md §17).
 *
 * Modes:
 *
 *   bf_top <live-file> [--interval <seconds>]
 *       Watch the table a running simulation publishes via BF_TOP
 *       (System::enableTopFile writes it atomically at chunk barriers).
 *       Redraws whenever the file changes, like top(1); ^C to quit.
 *
 *   bf_top --once <live-file>
 *       Print the current table once and exit (CI artifacts, scripts).
 *       Exits 1 if the file does not exist yet.
 *
 *   bf_top --json <bench.json>
 *       Print a per-container table from the `tenants` rows of the
 *       first run that has them in a schema-v3 bench report (e.g.
 *       BENCH_fig11_performance.json from `bench_paper
 *       fig11_performance`, or the bench_fig9 and bench_zoo reports),
 *       for post-hoc inspection of archived runs. It is a subset of
 *       the live table: no sim-MIPS line and no missp99 or xevict
 *       columns, and it computes the l1hit/l2hit/shr percentages and
 *       the dram_xs sum itself from the row's counters, with the
 *       formulas of Registry::renderTable.
 *
 * The live file is plain rendered text (attrib::Registry::renderTable),
 * so the watch modes are deliberately dumb: read, clear, print; they
 * re-derive nothing.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: bf_top <live-file> [--interval <seconds>]\n"
        "       bf_top --once <live-file>\n"
        "       bf_top --json <bench.json>\n"
        "\n"
        "Watch (or print) the per-container attribution table of a\n"
        "BabelFish simulation. The live file is published by running\n"
        "benches under BF_TOP=<path>; --json reads the `tenants`\n"
        "section of a schema-v3 bench report instead.\n");
    return 2;
}

bool
slurp(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

// -------------------------------------------------------------------
// Live-file modes
// -------------------------------------------------------------------

int
runOnce(const std::string &path)
{
    std::string text;
    if (!slurp(path, text)) {
        std::fprintf(stderr,
                     "bf_top: %s: not readable (is the run started "
                     "with BF_TOP=%s?)\n",
                     path.c_str(), path.c_str());
        return 1;
    }
    std::fputs(text.c_str(), stdout);
    return 0;
}

int
runWatch(const std::string &path, double interval)
{
    // Poll mtime; the writer publishes atomically (tmp + rename), so a
    // read never observes a half-written table.
    struct stat last = {};
    bool seen = false;
    for (;;) {
        struct stat st;
        const bool exists = ::stat(path.c_str(), &st) == 0;
        const bool changed =
            exists && (!seen ||
                       std::memcmp(&st.st_mtime, &last.st_mtime,
                                   sizeof(st.st_mtime)) != 0 ||
                       st.st_size != last.st_size);
        if (changed) {
            std::string text;
            if (slurp(path, text)) {
                // Clear screen + home, like top(1).
                std::fputs("\033[H\033[2J", stdout);
                std::printf("bf_top — %s\n\n", path.c_str());
                std::fputs(text.c_str(), stdout);
                std::fflush(stdout);
                last = st;
                seen = true;
            }
        } else if (!exists && !seen) {
            std::printf("\rbf_top: waiting for %s ...", path.c_str());
            std::fflush(stdout);
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(static_cast<int>(interval * 1000)));
    }
}

// -------------------------------------------------------------------
// Post-hoc JSON mode
// -------------------------------------------------------------------
// Minimal extraction of the report's `tenants` array: each row is a
// flat object of numbers plus a "name" string and nested objects we
// can skip. Good enough for the fixed schema our benches emit; not a
// general JSON parser.

struct TenantRow
{
    std::string name;
    std::uint64_t num[32] = {}; // keyed lookup below
};

/** Position after skipping one balanced JSON value starting at i. */
std::size_t
skipValue(const std::string &s, std::size_t i)
{
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n'))
        ++i;
    if (i >= s.size())
        return i;
    if (s[i] == '"') {
        for (++i; i < s.size(); ++i) {
            if (s[i] == '\\')
                ++i;
            else if (s[i] == '"')
                return i + 1;
        }
        return i;
    }
    if (s[i] == '{' || s[i] == '[') {
        const char open = s[i], close = open == '{' ? '}' : ']';
        int depth = 0;
        bool in_str = false;
        for (; i < s.size(); ++i) {
            const char c = s[i];
            if (in_str) {
                if (c == '\\')
                    ++i;
                else if (c == '"')
                    in_str = false;
            } else if (c == '"') {
                in_str = true;
            } else if (c == open) {
                ++depth;
            } else if (c == close) {
                if (--depth == 0)
                    return i + 1;
            }
        }
        return i;
    }
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']')
        ++i;
    return i;
}

/** The keys bf_top renders, in TenantRow::num order. */
const char *const kKeys[] = {
    "slot",           "pid",
    "ccid",           "l1_hits",
    "l1_misses",      "l2_data_hits",
    "l2_instr_hits",  "l2_data_misses",
    "l2_instr_misses","l2_data_shared_hits",
    "l2_instr_shared_hits", "walks",
    "cow_privatizations", "shootdowns_caused",
    "shootdowns_received", "dram_data_extra",
    "dram_walk_extra",
};
constexpr unsigned kNumKeys = sizeof(kKeys) / sizeof(kKeys[0]);

/** Parse one tenant object ([begin, end) spans the braces). */
TenantRow
parseRow(const std::string &s, std::size_t begin, std::size_t end)
{
    TenantRow row;
    std::size_t i = begin + 1;
    while (i < end) {
        while (i < end && s[i] != '"')
            ++i;
        if (i >= end)
            break;
        const std::size_t key_end = s.find('"', i + 1);
        if (key_end == std::string::npos || key_end >= end)
            break;
        const std::string key = s.substr(i + 1, key_end - i - 1);
        std::size_t v = s.find(':', key_end);
        if (v == std::string::npos || v >= end)
            break;
        ++v;
        while (v < end && (s[v] == ' ' || s[v] == '\n'))
            ++v;
        if (key == "name" && v < end && s[v] == '"') {
            const std::size_t name_end = skipValue(s, v);
            row.name = s.substr(v + 1, name_end - v - 2);
            i = name_end;
            continue;
        }
        bool matched = false;
        for (unsigned k = 0; k < kNumKeys; ++k) {
            if (key == kKeys[k]) {
                row.num[k] = std::strtoull(s.c_str() + v, nullptr, 10);
                matched = true;
                break;
            }
        }
        (void)matched; // unknown / nested keys are skipped below
        i = skipValue(s, v);
    }
    return row;
}

int
runJson(const std::string &path)
{
    std::string text;
    if (!slurp(path, text)) {
        std::fprintf(stderr, "bf_top: cannot read %s\n", path.c_str());
        return 1;
    }
    const std::size_t anchor = text.find("\"tenants\"");
    if (anchor == std::string::npos) {
        std::fprintf(stderr,
                     "bf_top: %s has no `tenants` section (schema v3 "
                     "bench report required; re-run the bench or use "
                     "the live-file mode)\n",
                     path.c_str());
        return 1;
    }
    std::size_t i = text.find('[', anchor);
    if (i == std::string::npos) {
        std::fprintf(stderr, "bf_top: malformed tenants section\n");
        return 1;
    }
    const std::size_t array_end = skipValue(text, i);

    std::vector<TenantRow> rows;
    ++i;
    while (i < array_end) {
        while (i < array_end && text[i] != '{')
            ++i;
        if (i >= array_end)
            break;
        const std::size_t obj_end = skipValue(text, i);
        rows.push_back(parseRow(text, i, obj_end));
        i = obj_end;
    }

    const auto pct = [](std::uint64_t n, std::uint64_t d) {
        return d ? 100.0 * static_cast<double>(n) /
                       static_cast<double>(d)
                 : 0.0;
    };
    std::printf("tenants %zu (%s)\n", rows.size(), path.c_str());
    std::printf("slot name             pid ccid  l1hit%%  l2hit%%   "
                "shr%%       walks        cow   sd_c   sd_r    dram_xs\n");
    for (const auto &r : rows) {
        const std::uint64_t l1h = r.num[3], l1m = r.num[4];
        const std::uint64_t l2h = r.num[5] + r.num[6];
        const std::uint64_t l2m = r.num[7] + r.num[8];
        const std::uint64_t shr = r.num[9] + r.num[10];
        std::printf("%4llu %-16.16s %4llu %4llu %6.1f%% %6.1f%% %5.1f%% "
                    "%11llu %10llu %6llu %6llu %10llu\n",
                    static_cast<unsigned long long>(r.num[0]),
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.num[1]),
                    static_cast<unsigned long long>(r.num[2]),
                    pct(l1h, l1h + l1m), pct(l2h, l2h + l2m),
                    pct(shr, l2h),
                    static_cast<unsigned long long>(r.num[11]),
                    static_cast<unsigned long long>(r.num[12]),
                    static_cast<unsigned long long>(r.num[13]),
                    static_cast<unsigned long long>(r.num[14]),
                    static_cast<unsigned long long>(r.num[15] +
                                                    r.num[16]));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string first = argv[1];
    if (first == "--once") {
        if (argc < 3)
            return usage();
        return runOnce(argv[2]);
    }
    if (first == "--json") {
        if (argc < 3)
            return usage();
        return runJson(argv[2]);
    }
    if (first[0] == '-' && first != "-")
        return usage();
    double interval = 0.5;
    for (int i = 2; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--interval") == 0)
            interval = std::atof(argv[i + 1]);
    }
    if (interval <= 0)
        interval = 0.5;
    return runWatch(first, interval);
}
