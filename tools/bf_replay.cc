/**
 * @file
 * bf_replay — trace-driven replay of the translation pipeline
 * (src/replay, DESIGN.md §13).
 *
 * Modes:
 *
 *   bf_replay <trace> [overrides] [--json <out.json>]
 *       Single-point replay. With no overrides the machine comes from
 *       the trace header (the recording configuration); the reconstructed
 *       per-core stats tree is printed as "name value" lines, or dumped
 *       as JSON with --json.
 *
 *   bf_replay --validate <trace>
 *       Replay at the recording configuration and diff every
 *       reconstructed TLB/PWC counter (and the miss-latency count/sum)
 *       against the values tallied from the trace events themselves.
 *       Exits 0 when every counter matches exactly.
 *
 * Geometry overrides (sweep knobs):
 *   --l2-entries N  --l2-assoc N     all three L2 size structures
 *   --l1d-entries N --l1d-assoc N    L1 D-TLB (4K structure)
 *   --l1i-entries N --l1i-assoc N    L1 I-TLB
 *   --pwc-entries N                  PWC entries per level
 *   --opc-width N                    modeled O-PC bitmask width (<= 32)
 *   --policy lru|fifo|random         replacement policy, every TLB
 *
 * Exit codes: 0 ok; 1 validation mismatch; 2 usage error (among them a
 * geometry value that is not a positive integer, an entry count the
 * structure's associativity does not divide, or an O-PC width above
 * 32); 3 trace error
 * (unreadable, wrong version, limit-clipped, unreplayable).
 */

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>

#include "common/trace/trace.hh"
#include "replay/replay.hh"

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: bf_replay [--validate] <trace> [options]\n"
        "options:\n"
        "  --l2-entries N   --l2-assoc N    L2 TLB geometry (all sizes)\n"
        "  --l1d-entries N  --l1d-assoc N   L1 D-TLB (4K) geometry\n"
        "  --l1i-entries N  --l1i-assoc N   L1 I-TLB geometry\n"
        "  --pwc-entries N                  PWC entries per level\n"
        "  --opc-width N                    O-PC bitmask width (<=32)\n"
        "  --policy lru|fifo|random         TLB replacement policy\n"
        "  --json <file>                    write the stats tree as JSON\n");
    return 2;
}

/**
 * Whether an overridden TLB geometry can be built: Tlb treats an
 * associativity of 0 or at least the entry count as fully associative
 * and asserts that the associativity divides the entry count.
 */
bool
checkGeometry(const char *flag, unsigned entries, unsigned assoc,
              std::initializer_list<const bf::tlb::TlbParams *> tlbs)
{
    if (!entries && !assoc)
        return true;
    for (const bf::tlb::TlbParams *tp : tlbs) {
        const unsigned ways =
            tp->assoc == 0 || tp->assoc >= tp->entries ? tp->entries
                                                       : tp->assoc;
        if (tp->entries % ways != 0) {
            std::fprintf(stderr,
                         "bf_replay: --%s-entries / --%s-assoc: %u "
                         "entries are not divisible by %u ways (%s)\n",
                         flag, flag, tp->entries, ways, tp->name.c_str());
            return false;
        }
    }
    return true;
}

void
printCounters(const char *label, const bf::replay::Counters &c)
{
    bf::replay::forEachCounter(
        [label](const char *name, std::uint64_t value) {
            std::printf("%s.%s %" PRIu64 "\n", label, name, value);
        },
        c);
}

} // namespace

int
main(int argc, char **argv)
{
    bool validate = false;
    std::string path;
    std::string json_path;

    struct Override { unsigned l2_entries = 0, l2_assoc = 0;
                      unsigned l1d_entries = 0, l1d_assoc = 0;
                      unsigned l1i_entries = 0, l1i_assoc = 0;
                      unsigned pwc_entries = 0, opc_width = 0;
                      std::string policy; } ov;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // A geometry value: the whole argument, a positive integer.
        auto numArg = [&](unsigned &out) {
            if (i + 1 >= argc)
                return false;
            const char *text = argv[++i];
            const char *last = text + std::strlen(text);
            const auto [end, ec] = std::from_chars(text, last, out);
            if (ec != std::errc() || end != last || out == 0) {
                std::fprintf(stderr,
                             "bf_replay: %s %s: not a positive integer\n",
                             arg.c_str(), text);
                return false;
            }
            return true;
        };
        if (arg == "--validate") {
            validate = true;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--l2-entries") {
            if (!numArg(ov.l2_entries)) return usage();
        } else if (arg == "--l2-assoc") {
            if (!numArg(ov.l2_assoc)) return usage();
        } else if (arg == "--l1d-entries") {
            if (!numArg(ov.l1d_entries)) return usage();
        } else if (arg == "--l1d-assoc") {
            if (!numArg(ov.l1d_assoc)) return usage();
        } else if (arg == "--l1i-entries") {
            if (!numArg(ov.l1i_entries)) return usage();
        } else if (arg == "--l1i-assoc") {
            if (!numArg(ov.l1i_assoc)) return usage();
        } else if (arg == "--pwc-entries") {
            if (!numArg(ov.pwc_entries)) return usage();
        } else if (arg == "--opc-width") {
            if (!numArg(ov.opc_width)) return usage();
            if (ov.opc_width > 32) {
                std::fprintf(stderr,
                             "bf_replay: --opc-width %u: above 32, the "
                             "O-PC bitmask's width\n",
                             ov.opc_width);
                return usage();
            }
        } else if (arg == "--policy" && i + 1 < argc) {
            ov.policy = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage();
        }
    }
    if (path.empty())
        return usage();

    try {
        bf::trace::TraceReader reader(path);
        bf::replay::ReplayParams params =
            bf::replay::paramsFromTrace(reader.header().config);

        if (ov.l2_entries) {
            params.l2_4k.entries = ov.l2_entries;
            params.l2_2m.entries = ov.l2_entries;
            params.l2_1g.entries = ov.l2_entries;
        }
        if (ov.l2_assoc) {
            params.l2_4k.assoc = ov.l2_assoc;
            params.l2_2m.assoc = ov.l2_assoc;
            params.l2_1g.assoc = ov.l2_assoc;
        }
        if (ov.l1d_entries)
            params.l1d_4k.entries = ov.l1d_entries;
        if (ov.l1d_assoc)
            params.l1d_4k.assoc = ov.l1d_assoc;
        if (ov.l1i_entries)
            params.l1i_4k.entries = ov.l1i_entries;
        if (ov.l1i_assoc)
            params.l1i_4k.assoc = ov.l1i_assoc;
        if (ov.pwc_entries)
            params.pwc.entries_per_level = ov.pwc_entries;
        if (ov.opc_width)
            params.opc_width = ov.opc_width;
        if (!ov.policy.empty()) {
            bf::tlb::TlbParams::Policy policy;
            if (ov.policy == "lru")
                policy = bf::tlb::TlbParams::Policy::Lru;
            else if (ov.policy == "fifo")
                policy = bf::tlb::TlbParams::Policy::Fifo;
            else if (ov.policy == "random")
                policy = bf::tlb::TlbParams::Policy::Random;
            else
                return usage();
            for (bf::tlb::TlbParams *tp :
                 {&params.l1i_4k, &params.l1d_4k, &params.l1d_2m,
                  &params.l1d_1g, &params.l2_4k, &params.l2_2m,
                  &params.l2_1g})
                tp->policy = policy;
        }

        if (!checkGeometry("l2", ov.l2_entries, ov.l2_assoc,
                           { &params.l2_4k, &params.l2_2m, &params.l2_1g }) ||
            !checkGeometry("l1d", ov.l1d_entries, ov.l1d_assoc,
                           { &params.l1d_4k }) ||
            !checkGeometry("l1i", ov.l1i_entries, ov.l1i_assoc,
                           { &params.l1i_4k }))
            return 2;
        if (ov.pwc_entries &&
            params.pwc.entries_per_level % params.pwc.assoc != 0) {
            std::fprintf(stderr,
                         "bf_replay: --pwc-entries %u: not divisible by "
                         "the PWC's %u ways\n",
                         ov.pwc_entries, params.pwc.assoc);
            return 2;
        }

        bf::replay::ReplayEngine engine(params, reader.header());
        engine.run(reader);

        if (!json_path.empty()) {
            std::FILE *out = std::fopen(json_path.c_str(), "w");
            if (!out) {
                std::fprintf(stderr, "bf_replay: could not write %s\n",
                             json_path.c_str());
                return 3;
            }
            const std::string json = engine.statsJson();
            std::fwrite(json.data(), 1, json.size(), out);
            std::fclose(out);
        }

        if (validate) {
            const auto diffs = engine.validate();
            if (diffs.empty()) {
                std::printf("%s: OK, replay matches recording on all "
                            "%u cores\n",
                            path.c_str(), engine.numCores());
                printCounters("total", engine.replayedTotal());
                return 0;
            }
            std::fprintf(stderr,
                         "bf_replay: %zu counter(s) diverge from the "
                         "recording:\n", diffs.size());
            for (const auto &d : diffs)
                std::fprintf(stderr,
                             "  %s recorded=%" PRIu64
                             " replayed=%" PRIu64 "\n",
                             d.name.c_str(), d.recorded, d.replayed);
            return 1;
        }

        printCounters("total", engine.replayedTotal());
        for (unsigned c = 0; c < engine.numCores(); ++c) {
            const std::string label = "core" + std::to_string(c);
            printCounters(label.c_str(), engine.replayed(c));
        }
        return 0;
    } catch (const bf::trace::TraceError &err) {
        std::fprintf(stderr, "bf_replay: %s: %s\n", path.c_str(),
                     err.what());
        return 3;
    } catch (const bf::replay::ReplayError &err) {
        std::fprintf(stderr, "bf_replay: %s: %s\n", path.c_str(),
                     err.what());
        return 3;
    }
}
