/**
 * @file
 * bf_top — live per-container view of a BabelFish run (DESIGN.md §17).
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
 * The live file is plain rendered text (attrib::Registry::renderTable),
 * so both modes are deliberately dumb: read, clear, print; they
 * re-derive nothing. The `tenants` rows of a finished bench report are
 * printed by tools/bf_tenants.py.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: bf_top <live-file> [--interval <seconds>]\n"
        "       bf_top --once <live-file>\n"
        "\n"
        "Watch (or print) the per-container attribution table of a\n"
        "BabelFish simulation. The live file is published by running\n"
        "benches under BF_TOP=<path>; tools/bf_tenants.py prints the\n"
        "`tenants` rows of a finished bench report.\n");
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
