/**
 * @file
 * Example: drive the simulator with your own memory trace.
 *
 * A trace is plain text — `<R|W|I> <address> [instrs]` per line — so any
 * binary-instrumentation tool can produce one. This example synthesizes
 * a small trace of a process scanning a shared file plus writing private
 * scratch, replays it in two containers of one CCID group, and compares
 * Baseline vs BabelFish.
 *
 * Run: ./build/examples/trace_replay [trace-file]
 *      (without an argument a built-in demo trace is used)
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/system.hh"
#include "workloads/trace.hh"

using namespace bf;

namespace
{

constexpr Addr kDataVa = 0x7e00'0000'0000ull;    // shared file (Shm)
constexpr Addr kScratchVa = 0x0001'0000'0000ull; // private (Heap)

std::string
demoTrace()
{
    std::ostringstream text;
    text << "# demo: strided scan over 2 MB of shared data with\n";
    text << "# private scratch writes every 8th access\n";
    for (int i = 0; i < 512; ++i) {
        text << "R 0x" << std::hex << (kDataVa + i * 0x1000) << std::dec
             << " 300\n";
        if (i % 8 == 7)
            text << "W 0x" << std::hex << (kScratchVa + (i / 8) * 0x1000)
                 << std::dec << " 150\n";
    }
    return text.str();
}

double
replay(const std::vector<core::MemRef> &trace, bool babelfish)
{
    core::SystemParams params = babelfish
                                    ? core::SystemParams::babelfish()
                                    : core::SystemParams::baseline();
    params.num_cores = 1;
    params.kernel.mem_frames = 1 << 22;
    core::System sys(params);
    vm::Kernel &kernel = sys.kernel();

    const Ccid group = kernel.createGroup("trace-app", 5);
    auto *data = kernel.createFile("data", 64ull << 20);
    data->preload(kernel.frames());

    std::vector<std::unique_ptr<workloads::TraceThread>> threads;
    for (int c = 0; c < 2; ++c) {
        vm::Process *proc =
            kernel.createProcess(
                group, std::string("c").append(std::to_string(c)));
        kernel.mmapObject(*proc, data, kDataVa, 64ull << 20, 0, false,
                          false, false);
        kernel.mmapAnon(*proc, kScratchVa, 16ull << 20, true, false);
        threads.push_back(std::make_unique<workloads::TraceThread>(
            "trace", proc, trace, /*loops=*/20));
        sys.addThread(0, threads.back().get());
    }
    sys.runUntilFinished(msToCycles(500));
    // busy_cycles counts the work actually executed (the core clock
    // snaps to scheduler barriers).
    return static_cast<double>(sys.core(0).busy_cycles.value());
}

} // namespace

int
main(int argc, char **argv)
{
    bf::detail::setVerbose(false);

    std::vector<core::MemRef> trace;
    if (argc > 1) {
        std::ifstream file(argv[1]);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
        trace = workloads::parseTrace(file);
        std::printf("replaying %zu references from %s in 2 containers\n",
                    trace.size(), argv[1]);
    } else {
        std::istringstream demo(demoTrace());
        trace = workloads::parseTrace(demo);
        std::printf("replaying the built-in demo trace (%zu refs, "
                    "20 loops, 2 containers)\n",
                    trace.size());
    }

    const double base = replay(trace, false);
    const double fish = replay(trace, true);
    std::printf("%-12s %14.0f cycles\n", "Baseline", base);
    std::printf("%-12s %14.0f cycles  (-%.1f%%)\n", "BabelFish", fish,
                100.0 * (1.0 - fish / base));
    return 0;
}
