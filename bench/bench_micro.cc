/**
 * @file
 * Microbenchmarks (google-benchmark) of the simulator's hot components:
 * TLB lookups (conventional vs BabelFish), cache and DRAM accesses,
 * page walks, fault handling, fork, and the weave machinery (ladder
 * merge vs the sort it replaced, pooled vs fresh epoch-log buffers).
 * These quantify the cost of the BabelFish lookup logic in the model
 * and keep the simulator's own performance in check.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <tuple>

#include "bench/common.hh"
#include "common/object_pool.hh"
#include "core/epoch.hh"
#include "core/mmu.hh"
#include "core/system.hh"
#include "mem/hierarchy.hh"
#include "tlb/page_walker.hh"
#include "tlb/tlb.hh"
#include "vm/kernel.hh"

using namespace bf;

namespace
{

constexpr Addr kVa = 0x7f00'0000'0000ull;

std::unique_ptr<tlb::Tlb>
makeFilledTlb(unsigned entries)
{
    tlb::TlbParams params;
    params.entries = entries;
    params.assoc = 12;
    auto tlb_ptr = std::make_unique<tlb::Tlb>(params);
    tlb::Tlb &tlb = *tlb_ptr;
    for (Vpn vpn = 0; vpn < entries; ++vpn) {
        tlb::TlbEntry entry;
        entry.valid = true;
        entry.vpn = vpn;
        entry.ppn = vpn + 100;
        entry.pcid = 1 + (vpn % 3);
        entry.fill_pcid = entry.pcid;
        entry.ccid = 7;
        entry.orpc = (vpn % 7) == 0;
        entry.pc_bitmask = entry.orpc ? 0b10 : 0;
        tlb.fill(entry, true);
    }
    return tlb_ptr;
}

void
BM_TlbLookupConventional(benchmark::State &state)
{
    auto tlb = makeFilledTlb(1536);
    Vpn vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb->lookupConventional(vpn, 1));
        vpn = (vpn + 97) % 1536;
    }
}
BENCHMARK(BM_TlbLookupConventional);

void
BM_TlbLookupBabelFish(benchmark::State &state)
{
    auto tlb = makeFilledTlb(1536);
    Vpn vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb->lookupBabelFish(vpn, 7, 1, 0));
        vpn = (vpn + 97) % 1536;
    }
}
BENCHMARK(BM_TlbLookupBabelFish);

constexpr unsigned kPressureTlbs = 48; //!< ~8 cores x 6 structures.

void
BM_TlbLookupPressured(benchmark::State &state)
{
    // Round-robin over as many instances as a full 8-core system keeps
    // live, spilling the host's private caches: each probe walks one
    // set of whole TlbEntry records. How much that costs depends on the
    // host's cache sizes; the end-to-end A/B in EXPERIMENTS.md is the
    // authoritative number.
    std::vector<std::unique_ptr<tlb::Tlb>> tlbs;
    for (unsigned i = 0; i < kPressureTlbs; ++i)
        tlbs.push_back(makeFilledTlb(1536));
    Vpn vpn = 0;
    unsigned j = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tlbs[j]->lookupConventional(vpn, 1 + (vpn % 3)));
        vpn = (vpn + 97) % 1536;
        j = (j + 1) % kPressureTlbs;
    }
}
BENCHMARK(BM_TlbLookupPressured);

/**
 * MMU translate fixture for the L0 inline-cache microbenches: one warm
 * 4K-mapped region, faults pre-taken so the loop measures only the
 * TLB-hit path. @p no_l0 constructs the Mmu with MmuParams::l0_cache
 * off, i.e. the slow-path L1 probe sequence the L0 short-circuits.
 */
struct MmuFixture
{
    vm::Kernel kernel;
    mem::CacheHierarchy mem;
    std::unique_ptr<core::Mmu> mmu;
    vm::Process *proc;

    explicit MmuFixture(bool no_l0 = false)
        : kernel([] {
              auto p = core::SystemParams::babelfish().kernel;
              p.mem_frames = 1 << 22;
              return p;
          }()),
          mem(mem::HierarchyParams{}, 1)
    {
        auto p = core::SystemParams::babelfish();
        auto m = p.mmu;
        m.aslr = p.kernel.aslr;
        m.l0_cache = !no_l0;
        mmu = std::make_unique<core::Mmu>(0, m, mem, kernel);

        const Ccid g = kernel.createGroup("g", 1);
        proc = kernel.createProcess(g, "p");
        auto *file = kernel.createFile("f", 16 << 20);
        file->preload(kernel.frames());
        kernel.mmapObject(*proc, file, kVa, 16 << 20, 0, false, false,
                          false);
        for (Addr va = kVa; va < kVa + (16ull << 20); va += 4096)
            mmu->translate(*proc, va, AccessType::Read, 0);
    }
};

void
BM_MmuTranslateL0Hit(benchmark::State &state)
{
    MmuFixture fx;
    // A small strided working set: every access is an L0 hit after the
    // first lap (32 pages, distinct L0 slots).
    Addr va = kVa;
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fx.mmu->translate(*fx.proc, va, AccessType::Read, now += 10));
        va = kVa + ((va - kVa + 4096) & (32 * 4096 - 1));
    }
}
BENCHMARK(BM_MmuTranslateL0Hit);

void
BM_MmuTranslateL0Disabled(benchmark::State &state)
{
    MmuFixture fx(/*no_l0=*/true);
    // Identical access stream to BM_MmuTranslateL0Hit, answered by the
    // full L1 probe sequence — the delta is the L0's saving.
    Addr va = kVa;
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fx.mmu->translate(*fx.proc, va, AccessType::Read, now += 10));
        va = kVa + ((va - kVa + 4096) & (32 * 4096 - 1));
    }
}
BENCHMARK(BM_MmuTranslateL0Disabled);

void
BM_MmuTranslateL0Conflict(benchmark::State &state)
{
    MmuFixture fx;
    // Two pages 1 MiB apart alias the same direct-mapped L0 slot but
    // coexist in the 4-way L1 set: every access misses the L0 and
    // falls back to the L1 probe, measuring the miss-side overhead.
    const Addr a = kVa, b = kVa + 256 * 4096;
    bool flip = false;
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fx.mmu->translate(
            *fx.proc, flip ? a : b, AccessType::Read, now += 10));
        flip = !flip;
    }
}
BENCHMARK(BM_MmuTranslateL0Conflict);

void
BM_MmuApplyInvalidatePage(benchmark::State &state)
{
    MmuFixture fx;
    // Steady-state shootdown cost: one page invalidate against warm
    // structures (includes the L0 generation bump) plus the re-warming
    // translate that refills what the shootdown dropped.
    Cycles now = 0;
    for (auto _ : state) {
        fx.mmu->applyInvalidate({vm::TlbInvalidate::Kind::Page,
                                 fx.proc->ccid(), fx.proc->pcid(),
                                 kVa >> 12, 1, PageSize::Size4K});
        benchmark::DoNotOptimize(fx.mmu->translate(
            *fx.proc, kVa, AccessType::Read, now += 100));
    }
}
BENCHMARK(BM_MmuApplyInvalidatePage);

/** Heap-churn payload sized like a kernel PageTablePage. */
struct ChurnObj
{
    std::uint64_t words[72];

    explicit ChurnObj(std::uint64_t seed) { words[0] = seed; }
};

void
BM_ObjectPoolChurn(benchmark::State &state)
{
    ObjectPool<ChurnObj> pool;
    std::vector<ChurnObj *> live;
    live.reserve(64);
    std::uint64_t i = 0;
    for (auto _ : state) {
        live.push_back(pool.acquire(i++));
        if (live.size() == 64) {
            for (ChurnObj *obj : live)
                pool.release(obj);
            live.clear();
        }
    }
    for (ChurnObj *obj : live)
        pool.release(obj);
}
BENCHMARK(BM_ObjectPoolChurn);

void
BM_HeapChurn(benchmark::State &state)
{
    // The malloc/free baseline BM_ObjectPoolChurn replaces.
    std::vector<ChurnObj *> live;
    live.reserve(64);
    std::uint64_t i = 0;
    for (auto _ : state) {
        live.push_back(new ChurnObj(i++));
        if (live.size() == 64) {
            for (ChurnObj *obj : live)
                delete obj;
            live.clear();
        }
    }
    for (ChurnObj *obj : live)
        delete obj;
}
BENCHMARK(BM_HeapChurn);

/**
 * Per-core epoch logs shaped like one sync chunk of an 8-core run:
 * monotonic per-core timestamps with irregular strides, ~1/4 writes,
 * ~1/8 walker events, scattered paddrs. Shared fixture for the merge
 * and pooling microbenches.
 */
std::vector<std::unique_ptr<core::EpochLog>>
makeEpochLogs(unsigned cores, std::size_t events_per_core)
{
    std::vector<std::unique_ptr<core::EpochLog>> logs;
    std::uint64_t rng = 0x2545F4914F6CDD1Dull;
    for (unsigned c = 0; c < cores; ++c) {
        auto log = std::make_unique<core::EpochLog>(c);
        Cycles ts = 1000 + 37 * c;
        for (std::size_t i = 0; i < events_per_core; ++i) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            ts += 1 + (rng % 40);
            const Addr paddr = (rng >> 8) % (1ull << 32) & ~Addr{63};
            const auto type = (rng & 3) == 0 ? AccessType::Write
                                             : AccessType::Read;
            log->appendAccess(ts, paddr, type, (rng & 7) == 0);
        }
        logs.push_back(std::move(log));
    }
    return logs;
}

constexpr unsigned kMergeCores = 8;
constexpr std::size_t kMergeEvents = 4096; //!< Per core, one chunk's worth.

void
BM_EpochMergeLadder(benchmark::State &state)
{
    const auto logs = makeEpochLogs(kMergeCores, kMergeEvents);
    core::WeaveStream out;
    for (auto _ : state) {
        out.clear();
        core::mergeEpochLogs(logs, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * kMergeCores *
                            kMergeEvents);
}
BENCHMARK(BM_EpochMergeLadder);

void
BM_EpochMergeSort(benchmark::State &state)
{
    // The comparison-sort merge the ladder replaced: gather every
    // event, then stable-sort by (ts, core) (stability keeps each
    // core's seq order). Kept as the "before" model so the ladder's win
    // stays measurable.
    const auto logs = makeEpochLogs(kMergeCores, kMergeEvents);
    core::WeaveStream out;
    for (auto _ : state) {
        out.clear();
        for (const auto &log : logs)
            out.insert(out.end(), log->events().begin(),
                       log->events().end());
        std::stable_sort(out.begin(), out.end(),
                         [](const core::EpochEvent &a,
                            const core::EpochEvent &b) {
                             return std::tie(a.ts, a.core) <
                                    std::tie(b.ts, b.core);
                         });
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * kMergeCores *
                            kMergeEvents);
}
BENCHMARK(BM_EpochMergeSort);

void
BM_EpochLogPooled(benchmark::State &state)
{
    // Steady-state chunk loop: clearEvents() keeps the capacity, so
    // every append after the first lap is a pure store.
    core::EpochLog log(0);
    std::uint64_t i = 0;
    for (auto _ : state) {
        log.clearEvents();
        for (std::size_t e = 0; e < kMergeEvents; ++e) {
            log.appendAccess(1000 + e, (i + e) * 64,
                             (e & 3) == 0 ? AccessType::Write
                                          : AccessType::Read,
                             false);
        }
        benchmark::DoNotOptimize(log.events().size());
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * kMergeEvents);
}
BENCHMARK(BM_EpochLogPooled);

void
BM_EpochLogFresh(benchmark::State &state)
{
    // The allocation-per-chunk baseline the pooling replaced: a fresh
    // event vector every round, growing from empty.
    std::uint64_t i = 0;
    for (auto _ : state) {
        core::EpochLog log(0);
        for (std::size_t e = 0; e < kMergeEvents; ++e) {
            log.appendAccess(1000 + e, (i + e) * 64,
                             (e & 3) == 0 ? AccessType::Write
                                          : AccessType::Read,
                             false);
        }
        benchmark::DoNotOptimize(log.events().size());
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * kMergeEvents);
}
BENCHMARK(BM_EpochLogFresh);

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    mem::CacheHierarchy hierarchy(mem::HierarchyParams{}, 1);
    Addr addr = 0;
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            hierarchy.access(0, addr, AccessType::Read, now));
        addr = (addr + 64) % (16ull << 20);
        now += 10;
    }
}
BENCHMARK(BM_CacheHierarchyAccess);

void
BM_DramAccess(benchmark::State &state)
{
    mem::Dram dram(mem::DramParams{});
    Addr addr = 0;
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dram.access(addr, now, false));
        addr += 64;
        now += 100;
    }
}
BENCHMARK(BM_DramAccess);

struct WalkFixture
{
    vm::Kernel kernel;
    mem::CacheHierarchy mem;
    tlb::Pwc pwc;
    tlb::PageWalker walker;
    vm::Process *proc;

    WalkFixture()
        : kernel([] {
              vm::KernelParams p;
              p.mem_frames = 1 << 22;
              return p;
          }()),
          mem(mem::HierarchyParams{}, 1), pwc(tlb::PwcParams{}),
          walker(0, mem, kernel, pwc, true)
    {
        const Ccid g = kernel.createGroup("g", 1);
        proc = kernel.createProcess(g, "p");
        auto *file = kernel.createFile("f", 64 << 20);
        file->preload(kernel.frames());
        kernel.mmapObject(*proc, file, kVa, 64 << 20, 0, false, false,
                          false);
        for (Addr va = kVa; va < kVa + (64ull << 20); va += 4096)
            kernel.handleFault(*proc, va, AccessType::Read);
    }
};

void
BM_PageWalk(benchmark::State &state)
{
    WalkFixture fx;
    Addr va = kVa;
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fx.walker.walk(*fx.proc, va, AccessType::Read, now));
        va = kVa + ((va - kVa + 4096 * 513) % (64ull << 20));
        now += 100;
    }
}
BENCHMARK(BM_PageWalk);

void
BM_HandleFaultMinor(benchmark::State &state)
{
    vm::KernelParams params;
    params.mem_frames = 1 << 23;
    vm::Kernel kernel(params);
    const Ccid g = kernel.createGroup("g", 1);
    vm::Process *proc = kernel.createProcess(g, "p");
    auto *file = kernel.createFile("f", 2048ull << 20);
    file->preload(kernel.frames());
    kernel.mmapObject(*proc, file, kVa, 2048ull << 20, 0, false, false,
                      false);
    // Wraps around once the mapping is fully populated, so long runs mix
    // first-touch minor faults with the resolved fast path.
    const std::uint64_t pages = (2048ull << 20) / basePageBytes;
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernel.handleFault(
            *proc, kVa + (i++ % pages) * basePageBytes,
            AccessType::Read));
    }
}
BENCHMARK(BM_HandleFaultMinor);

void
BM_ForkWarmProcess(benchmark::State &state)
{
    vm::KernelParams params;
    params.mem_frames = 1 << 23;
    vm::Kernel kernel(params);
    const Ccid g = kernel.createGroup("g", 1);
    vm::Process *proc = kernel.createProcess(g, "p");
    auto *file = kernel.createFile("f", 32ull << 20);
    file->preload(kernel.frames());
    kernel.mmapObject(*proc, file, kVa, 32ull << 20, 0, false, true,
                      false);
    for (Addr va = kVa; va < kVa + (32ull << 20); va += 4096)
        kernel.handleFault(*proc, va, AccessType::Read);
    std::uint64_t i = 0;
    vm::Process *prev = nullptr;
    for (auto _ : state) {
        vm::Process *child = kernel.fork(
            *proc, std::string("c").append(std::to_string(i++)));
        benchmark::DoNotOptimize(child);
        // Retire the previous child so the sharer counters and process
        // table stay bounded however many iterations the harness runs.
        if (prev)
            kernel.exitProcess(*prev);
        prev = child;
    }
    if (prev)
        kernel.exitProcess(*prev);
}
BENCHMARK(BM_ForkWarmProcess);

/** Pages BM_KernelPrivateWriteFillCold fills, one per iteration. */
constexpr std::uint64_t kColdFillPages = 1 << 16;

void
BM_KernelPrivateWriteFillCold(benchmark::State &state)
{
    // The unit of the container set-up prefault: one BabelFish private
    // write fill, whose SharedRange shootdown the kernel bills to each
    // of the 16 group members and broadcasts to 8 cores that have not
    // translated yet. Every iteration fills a fresh page of one region,
    // so the iteration count is fixed at its size.
    core::SystemParams params = core::SystemParams::babelfish();
    params.num_cores = 8;
    params.kernel.mem_frames = 1 << 22;
    const auto sys = bfbench::makeSystem(params, bfbench::RunConfig{},
                                         "private-write-fill");
    vm::Kernel &kernel = sys->kernel();
    const Ccid g = kernel.createGroup("g", 1);
    vm::Process *proc = kernel.createProcess(g, "p");
    for (int i = 1; i < 16; ++i)
        kernel.createProcess(g, std::string("m").append(std::to_string(i)));
    kernel.mmapAnon(*proc, kVa, kColdFillPages * basePageBytes, true,
                    /*allow_huge=*/false);
    Addr va = kVa;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernel.handleFault(*proc, va, AccessType::Write));
        va += basePageBytes;
    }
}
BENCHMARK(BM_KernelPrivateWriteFillCold)->Iterations(kColdFillPages);

} // namespace

/**
 * Custom main: run the google-benchmark suite, then a short self-check
 * System so this binary also emits a BENCH_micro.json in the common
 * schema (timer results live in benchmark's own --benchmark_format
 * output, not here).
 */
int
main(int argc, char **argv)
{
    bfbench::RunConfig cfg = bfbench::RunConfig::fromEnv();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    cfg.num_cores = 1;
    cfg.warm_ms = std::min(cfg.warm_ms, 1.0);
    cfg.measure_ms = std::min(cfg.measure_ms, 2.0);
    bfbench::BenchReport report("micro");
    bfbench::reportConfig(report, cfg);
    const auto r = bfbench::runApp(workloads::AppProfile::mongodb(),
                                   core::SystemParams::babelfish(), cfg);
    report.metric("selfcheck.mean_latency", r.mean_latency);
    report.metric("selfcheck.data_mpki", r.data_mpki);
    report.addRun("selfcheck.mongodb.babelfish", r.artifacts);
    report.write();
    return 0;
}
