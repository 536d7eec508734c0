#include "common/attrib/attrib.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "common/stats_export.hh"
#include "translate/stats.hh"

namespace bf::attrib
{

static_assert(kWalks == translate::kNumScalarStats,
              "attrib::Counter's leading block must be TranslateStats' "
              "scalars, one lane each, in table order");

const char *
counterName(Counter c)
{
    static const auto names = [] {
        std::array<const char *, kNumCounters> n{};
        unsigned lane = 0;
        translate::TranslateStats probe;
        translate::forEachScalarStat(
            probe, [&](const char *name, stats::Scalar &) {
                n[lane++] = name;
            });
        n[kWalks] = "walks";
        n[kInstructions] = "instructions";
        return n;
    }();
    if (c >= kNumCounters)
        bf_panic("unknown attrib counter ", static_cast<unsigned>(c));
    return names[c];
}

void
CoreSink::grow(std::size_t slots)
{
    if (slots <= slots_)
        return;
    counts_.resize(slots * kNumCounters, 0);
    lat_.resize(slots);
    dirty_.resize(slots, 0);
    // The eviction matrices have a fixed column stride (kEdgeCols), so
    // growing the victim dimension is a plain append — no relayout.
    l1_ev_.resize(slots * kEdgeCols, 0);
    l2_ev_.resize(slots * kEdgeCols, 0);
    slots_ = slots;
}

Tenant::Tenant(stats::StatGroup *parent, int slot_, Pid pid_, Ccid ccid_,
               Pcid pcid_, const std::string &name_)
    : slot(slot_), pid(pid_), ccid(ccid_), pcid(pcid_), name(name_),
      // append, not "t" + to_string(): g++ 12 -O3 flags a false
      // -Wrestrict in the inlined operator+(const char *, string &&).
      group(std::string("t").append(std::to_string(slot_)), parent),
      evicted_by("evicted_by", &group)
{
    pid_stat.restoreValue(pid);
    ccid_stat.restoreValue(ccid);
    group.addStat("pid", &pid_stat);
    group.addStat("ccid", &ccid_stat);
    for (unsigned c = 0; c < kNumCounters; ++c)
        group.addStat(counterName(static_cast<Counter>(c)), &counters[c]);
    group.addStat("miss_latency", &miss_latency);
    group.addStat("cow_privatizations", &cow_privatizations);
    group.addStat("shootdowns_caused", &shootdowns_caused);
    group.addStat("shootdowns_caused_cross", &shootdowns_caused_cross);
    group.addStat("shootdowns_received", &shootdowns_received);
    group.addStat("shootdowns_received_cross", &shootdowns_received_cross);
    group.addStat("dram_data_extra", &dram_data_extra);
    group.addStat("dram_walk_extra", &dram_walk_extra);
    evicted_by.addStat("l1_other", &l1_evicted_by_other);
    evicted_by.addStat("l2_other", &l2_evicted_by_other);
}

Registry::Registry(stats::StatGroup *parent, unsigned num_cores)
    : group_("attrib", parent), slot_by_pcid_(4096, -1)
{
    for (unsigned i = 0; i < num_cores; ++i)
        sinks_.emplace_back();
}

int
Registry::registerTenant(Pid pid, Ccid ccid, Pcid pcid,
                         const std::string &name)
{
    const int slot = static_cast<int>(tenants_.size());
    // Every existing tenant's evicted-by row gains a column for the
    // newcomer (it can now be an aggressor), capped at kMaxEdgeSlots.
    if (slot < kMaxEdgeSlots) {
        for (auto &t : tenants_) {
            t.l1_evicted_by.emplace_back();
            t.evicted_by.addStat("l1_t" + std::to_string(slot),
                                 &t.l1_evicted_by.back());
            t.l2_evicted_by.emplace_back();
            t.evicted_by.addStat("l2_t" + std::to_string(slot),
                                 &t.l2_evicted_by.back());
        }
    }
    tenants_.emplace_back(&group_, slot, pid, ccid, pcid, name);
    Tenant &t = tenants_.back();
    const int cols = std::min(static_cast<int>(tenants_.size()),
                              kMaxEdgeSlots);
    for (int j = 0; j < cols; ++j) {
        t.l1_evicted_by.emplace_back();
        t.evicted_by.addStat("l1_t" + std::to_string(j),
                             &t.l1_evicted_by.back());
        t.l2_evicted_by.emplace_back();
        t.evicted_by.addStat("l2_t" + std::to_string(j),
                             &t.l2_evicted_by.back());
    }
    if (pid >= firstPid) {
        const std::size_t i = pid - firstPid;
        if (i >= slot_by_pid_.size())
            slot_by_pid_.resize(i + 1, -1);
        slot_by_pid_[i] = slot;
    }
    slot_by_pcid_[pcid & 0xfff] = slot;
    for (auto &s : sinks_)
        s.grow(tenants_.size());
    return slot;
}

void
Registry::drain()
{
    for (auto &s : sinks_) {
        for (std::size_t slot = 0; slot < s.slots_; ++slot) {
            if (!s.dirty_[slot])
                continue;
            s.dirty_[slot] = 0;
            Tenant &t = tenants_[slot];
            std::uint64_t *counts = &s.counts_[slot * kNumCounters];
            for (unsigned c = 0; c < kNumCounters; ++c) {
                if (counts[c]) {
                    t.counters[c] += counts[c];
                    counts[c] = 0;
                }
            }
            if (s.lat_[slot].count()) {
                t.miss_latency.merge(s.lat_[slot]);
                s.lat_[slot].reset();
            }
            std::uint64_t *l1 = &s.l1_ev_[slot * CoreSink::kEdgeCols];
            std::uint64_t *l2 = &s.l2_ev_[slot * CoreSink::kEdgeCols];
            const std::size_t cols = t.l1_evicted_by.size();
            for (std::size_t j = 0; j < cols; ++j) {
                if (l1[j]) {
                    t.l1_evicted_by[j] += l1[j];
                    l1[j] = 0;
                }
                if (l2[j]) {
                    t.l2_evicted_by[j] += l2[j];
                    l2[j] = 0;
                }
            }
            if (l1[kMaxEdgeSlots]) {
                t.l1_evicted_by_other += l1[kMaxEdgeSlots];
                l1[kMaxEdgeSlots] = 0;
            }
            if (l2[kMaxEdgeSlots]) {
                t.l2_evicted_by_other += l2[kMaxEdgeSlots];
                l2[kMaxEdgeSlots] = 0;
            }
        }
    }
}

void
Registry::resetCoreStats()
{
    drain();
    for (auto &t : tenants_) {
        for (auto &c : t.counters)
            c.reset();
        t.miss_latency.reset();
        t.evicted_by.resetTree();
        t.dram_data_extra.reset();
        t.dram_walk_extra.reset();
    }
}

std::uint64_t
Registry::crossL2Evictions() const
{
    std::uint64_t total = 0;
    for (const auto &t : tenants_) {
        for (std::size_t j = 0; j < t.l2_evicted_by.size(); ++j) {
            if (tenants_[j].ccid != t.ccid)
                total += t.l2_evicted_by[j].value();
        }
        // Tenants past the column cap are churn containers,
        // overwhelmingly cross-group; count the folded column as cross.
        total += t.l2_evicted_by_other.value();
    }
    return total;
}

namespace
{

void
appendEdgeMap(std::ostringstream &os,
              const std::deque<stats::Scalar> &cols,
              const stats::Scalar &other)
{
    os << '{';
    bool first = true;
    for (std::size_t j = 0; j < cols.size(); ++j) {
        if (!cols[j].value())
            continue;
        if (!first)
            os << ',';
        first = false;
        os << "\"t" << j << "\":" << cols[j].value();
    }
    if (other.value()) {
        if (!first)
            os << ',';
        os << "\"other\":" << other.value();
    }
    os << '}';
}

} // namespace

std::string
Registry::tenantsJson() const
{
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        const Tenant &t = tenants_[i];
        if (i)
            os << ',';
        os << "{\"slot\":" << t.slot << ",\"pid\":" << t.pid
           << ",\"ccid\":" << t.ccid << ",\"name\":\""
           << stats::jsonEscape(t.name) << '"';
        for (unsigned c = 0; c < kNumCounters; ++c)
            os << ",\"" << counterName(static_cast<Counter>(c))
               << "\":" << t.counters[c].value();
        os << ",\"miss_latency\":{\"count\":" << t.miss_latency.count()
           << ",\"sum\":" << t.miss_latency.sum()
           << ",\"max\":" << t.miss_latency.max()
           << ",\"p50\":" << t.miss_latency.percentile(50)
           << ",\"p95\":" << t.miss_latency.percentile(95)
           << ",\"p99\":" << t.miss_latency.percentile(99) << '}'
           << ",\"cow_privatizations\":" << t.cow_privatizations.value()
           << ",\"shootdowns_caused\":" << t.shootdowns_caused.value()
           << ",\"shootdowns_caused_cross\":"
           << t.shootdowns_caused_cross.value()
           << ",\"shootdowns_received\":" << t.shootdowns_received.value()
           << ",\"shootdowns_received_cross\":"
           << t.shootdowns_received_cross.value()
           << ",\"dram_data_extra\":" << t.dram_data_extra.value()
           << ",\"dram_walk_extra\":" << t.dram_walk_extra.value()
           << ",\"l1_evicted_by\":";
        appendEdgeMap(os, t.l1_evicted_by, t.l1_evicted_by_other);
        os << ",\"l2_evicted_by\":";
        appendEdgeMap(os, t.l2_evicted_by, t.l2_evicted_by_other);
        os << '}';
    }
    os << ']';
    return os.str();
}

std::string
Registry::renderTable(double sim_mips) const
{
    std::ostringstream os;
    if (sim_mips > 0) {
        char head[64];
        std::snprintf(head, sizeof(head), "sim-MIPS %.1f\n", sim_mips);
        os << head;
    }
    os << "slot name             pid ccid  l1hit%  l2hit%   shr% "
          "      walks  missp99        cow   sd_c   sd_r  xevict "
          "   dram_xs\n";
    for (const auto &t : tenants_) {
        const std::uint64_t l1h = t.counters[kL1Hits].value();
        const std::uint64_t l1m = t.counters[kL1Misses].value();
        const std::uint64_t l2h = t.counters[kL2DataHits].value() +
                                  t.counters[kL2InstrHits].value();
        const std::uint64_t l2m = t.counters[kL2DataMisses].value() +
                                  t.counters[kL2InstrMisses].value();
        const std::uint64_t shr = t.counters[kL2DataSharedHits].value() +
                                  t.counters[kL2InstrSharedHits].value();
        const auto pct = [](std::uint64_t num, std::uint64_t den) {
            return den ? 100.0 * static_cast<double>(num) /
                             static_cast<double>(den)
                       : 0.0;
        };
        std::uint64_t xevict = t.l2_evicted_by_other.value() +
                               t.l1_evicted_by_other.value();
        for (std::size_t j = 0; j < t.l2_evicted_by.size(); ++j) {
            if (tenants_[j].ccid != t.ccid)
                xevict += t.l2_evicted_by[j].value() +
                          t.l1_evicted_by[j].value();
        }
        char line[256];
        std::snprintf(
            line, sizeof(line),
            "%4d %-16.16s %4u %4u %6.1f%% %6.1f%% %5.1f%% %11llu "
            "%8llu %10llu %6llu %6llu %7llu %10llu\n",
            t.slot, t.name.c_str(), t.pid, t.ccid, pct(l1h, l1h + l1m),
            pct(l2h, l2h + l2m), pct(shr, l2h),
            static_cast<unsigned long long>(t.counters[kWalks].value()),
            static_cast<unsigned long long>(t.miss_latency.percentile(99)),
            static_cast<unsigned long long>(t.cow_privatizations.value()),
            static_cast<unsigned long long>(t.shootdowns_caused.value()),
            static_cast<unsigned long long>(t.shootdowns_received.value()),
            static_cast<unsigned long long>(xevict),
            static_cast<unsigned long long>(t.dram_data_extra.value() +
                                            t.dram_walk_extra.value()));
        os << line;
    }
    return os.str();
}

} // namespace bf::attrib
