#include "replay/replay.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "common/stats.hh"
#include "common/stats_export.hh"
#include "translate/pipeline.hh"
#include "vm/paging.hh"
#include "vm/tlb_hooks.hh"

namespace bf::replay
{

Counters &
Counters::operator+=(const Counters &o)
{
    forEachCounter([](const char *, std::uint64_t &sum,
                      std::uint64_t add) { sum += add; },
                   *this, o);
    return *this;
}

ReplayParams
paramsFromTrace(const trace::TraceConfig &config)
{
    ReplayParams p;
    auto cvt = [](const trace::TraceTlbConfig &t, const char *name,
                  PageSize size) {
        tlb::TlbParams tp;
        tp.name = name;
        tp.entries = t.entries;
        tp.assoc = t.assoc;
        tp.page_size = size;
        tp.access_cycles = t.access_cycles;
        tp.bitmask_extra_cycles = t.bitmask_extra_cycles;
        tp.policy = static_cast<tlb::TlbParams::Policy>(t.policy);
        return tp;
    };
    p.l1i_4k = cvt(config.tlb[trace::TraceL1i4k], "l1i_4k",
                   PageSize::Size4K);
    p.l1d_4k = cvt(config.tlb[trace::TraceL1d4k], "l1d_4k",
                   PageSize::Size4K);
    p.l1d_2m = cvt(config.tlb[trace::TraceL1d2m], "l1d_2m",
                   PageSize::Size2M);
    p.l1d_1g = cvt(config.tlb[trace::TraceL1d1g], "l1d_1g",
                   PageSize::Size1G);
    p.l2_4k = cvt(config.tlb[trace::TraceL24k], "l2_4k", PageSize::Size4K);
    p.l2_2m = cvt(config.tlb[trace::TraceL22m], "l2_2m", PageSize::Size2M);
    p.l2_1g = cvt(config.tlb[trace::TraceL21g], "l2_1g", PageSize::Size1G);
    p.pwc.name = "pwc";
    p.pwc.entries_per_level = config.pwc_entries_per_level;
    p.pwc.assoc = config.pwc_assoc;
    p.pwc.levels = config.pwc_levels;
    p.pwc.access_cycles = config.pwc_access_cycles;
    p.babelfish = config.babelfish;
    // The recorded l1_sharing flag is MmuParams::l1Sharing() of the
    // recording, which the two fields below reproduce.
    p.aslr = config.aslr_hw ? vm::AslrMode::Hw : vm::AslrMode::Sw;
    p.force_long_l2 = config.force_long_l2;
    p.aslr_transform_cycles = config.aslr_transform_cycles;
    p.opc_width = config.opc_width ? config.opc_width : 32;
    p.backend = static_cast<translate::BackendKind>(config.backend);
    // Stats are identical either way, and on replayed streams (mostly
    // L1 misses, no core work between lookups) the L0 memo costs more
    // than it saves: ~6% of a sweep point's time on the mongodb trace.
    p.l0_cache = false;
    return p;
}

namespace
{

int
sizeIndex(PageSize size)
{
    return static_cast<int>(size);
}

/** Leaf page-table level of a page size (1G leaf lives in the PUD). */
int
leafLevel(PageSize size)
{
    switch (size) {
      case PageSize::Size4K: return vm::LevelPte;
      case PageSize::Size2M: return vm::LevelPmd;
      case PageSize::Size1G: return vm::LevelPud;
    }
    return vm::LevelPte;
}

bool
isKernelEvent(std::uint8_t type)
{
    switch (static_cast<trace::EventType>(type)) {
      case trace::EventType::FaultService:
      case trace::EventType::CowPrivatize:
      case trace::EventType::MaskFallback:
      case trace::EventType::Shootdown:
        return true;
      default:
        return false;
    }
}

/** The event kinds replay cannot work without (DESIGN.md §13). */
std::uint32_t
requiredEventMask()
{
    std::uint32_t mask = 0;
    for (trace::EventType t : {
             trace::EventType::TlbL1Hit, trace::EventType::TlbL2Hit,
             trace::EventType::TlbMiss, trace::EventType::PwcHit,
             trace::EventType::WalkStart, trace::EventType::WalkStep,
             trace::EventType::WalkEnd, trace::EventType::FaultService,
             trace::EventType::Shootdown, trace::EventType::TlbFill,
             trace::EventType::StatsReset})
        mask |= 1u << static_cast<unsigned>(t);
    return mask;
}

/**
 * Reject a trace replay cannot reproduce, before any work: a
 * limit-clipped recording, one missing a required event kind, or one
 * made by a backend whose L2 misses do not always walk — a Victima
 * backing-store refill logs TlbMiss → TlbFill with no walk between.
 */
void
checkReplayable(const trace::TraceHeader &header)
{
    if (header.dropped_count > 0)
        throw ReplayError(
            "trace is limit-clipped (" +
            std::to_string(header.dropped_count) +
            " records dropped by BF_TRACE_LIMIT); replay needs a "
            "complete trace — re-record with a higher limit");
    const std::uint32_t required = requiredEventMask();
    if ((header.event_mask & required) != required) {
        std::string missing;
        for (unsigned t = 0; t < trace::numEventTypes; ++t) {
            if ((required & (1u << t)) &&
                !(header.event_mask & (1u << t))) {
                if (!missing.empty())
                    missing += ", ";
                missing += trace::eventTypeName(
                    static_cast<trace::EventType>(t));
            }
        }
        throw ReplayError("trace event mask is missing replay-required "
                          "kinds: " + missing +
                          " — re-record it (this build records every "
                          "kind)");
    }
    const auto backend =
        static_cast<translate::BackendKind>(header.config.backend);
    if (backend == translate::BackendKind::Victima)
        throw ReplayError(
            std::string("trace was recorded with the ") +
            translate::backendName(backend) +
            " backend, whose backing-store refills skip the page walk "
            "replay re-executes — record with BF_BACKEND=babelfish or "
            "coalesced (either trace can be replayed as victima)");
}

/** One recorded walk: the events between a TlbMiss and its outcome. */
struct WalkInfo
{
    /** PwcHit / WalkStep records; a 4-level walk has at most one per
     *  level, so 8 slots is comfortably enough. */
    static constexpr unsigned max_steps = 8;
    const trace::Record *steps[max_steps];
    unsigned num_steps = 0;
    const trace::Record *end = nullptr;       //!< WalkEnd.
    const trace::Record *fill = nullptr;      //!< TlbFill iff status Ok.
};

/** Leaf attributes learned from a TlbFill event (synthetic walks). */
struct LeafAttr
{
    bool owned = false;
    bool orpc = false;
    bool cow = false;
    std::uint32_t pc_bitmask = 0;
};

/**
 * Open-addressing hash map keyed by (key, owner), written once while
 * the schedule learns and then probed read-only on every synthesized
 * walk — hot enough that std::unordered_map's prime-modulo hashing and
 * node chasing showed up as ~25% of a sweep point. Linear probing at
 * <= 50% load, last insert wins (the learning semantics).
 */
template <typename V>
class FlatMap
{
  public:
    void
    insert(std::uint64_t key, std::uint32_t owner, const V &value)
    {
        if ((used_ + 1) * 2 > slots_.size())
            grow();
        Slot &s = slot(key, owner);
        if (!s.used) {
            s.used = true;
            s.key = key;
            s.owner = owner;
            ++used_;
        }
        s.value = value;
    }

    const V *
    find(std::uint64_t key, std::uint32_t owner) const
    {
        if (slots_.empty())
            return nullptr;
        const std::uint64_t mask = slots_.size() - 1;
        for (std::uint64_t i = hash(key, owner) & mask; slots_[i].used;
             i = (i + 1) & mask) {
            if (slots_[i].key == key && slots_[i].owner == owner)
                return &slots_[i].value;
        }
        return nullptr;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t owner = 0;
        bool used = false;
        V value{};
    };

    static std::uint64_t
    hash(std::uint64_t key, std::uint32_t owner)
    {
        // splitmix64 finalizer over the combined identity.
        std::uint64_t x =
            key ^ (std::uint64_t{owner} * 0x9E3779B97F4A7C15ull);
        x ^= x >> 30;
        x *= 0xBF58476D1CE4E5B9ull;
        x ^= x >> 27;
        x *= 0x94D049BB133111EBull;
        x ^= x >> 31;
        return x;
    }

    Slot &
    slot(std::uint64_t key, std::uint32_t owner)
    {
        const std::uint64_t mask = slots_.size() - 1;
        std::uint64_t i = hash(key, owner) & mask;
        while (slots_[i].used &&
               !(slots_[i].key == key && slots_[i].owner == owner))
            i = (i + 1) & mask;
        return slots_[i];
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
        for (const Slot &s : old) {
            if (s.used) {
                Slot &d = slot(s.key, s.owner);
                d = s;
            }
        }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
};

} // namespace

/**
 * The analyzed form of a trace: everything processBlock derives that
 * depends only on the records, not on the replayed machine. Shared
 * read-only between engines in a sweep.
 */
struct ReplaySchedule::Impl
{
    struct Range
    {
        std::size_t begin, end;
    };

    /**
     * One parsed access unit: a translate attempt and its walk. The
     * attempt's fields are copied out of the (core-interleaved) record
     * array so the replay loop streams each core's units sequentially.
     */
    struct Unit
    {
        static constexpr std::uint32_t no_walk = ~std::uint32_t{0};
        Addr vpage = 0;
        std::uint32_t pid = 0;
        std::uint32_t walk = no_walk; //!< Index into Block::walks[core].
        Pcid pcid = 0;
        Ccid ccid = 0;
        std::int8_t process_bit = -1;
        std::uint8_t type = 0; //!< TlbL1Hit / TlbL2Hit / TlbMiss.
        std::uint8_t flags = 0;

        static Unit
        fromRecord(const trace::Record &r, std::uint32_t walk_index)
        {
            Unit u;
            u.vpage = r.vpage;
            u.pid = r.pid;
            u.walk = walk_index;
            u.pcid = trace::attemptPcid(r.arg);
            u.ccid = r.ccid;
            u.process_bit =
                static_cast<std::int8_t>(trace::attemptProcessBit(r.arg));
            u.type = r.type;
            u.flags = r.flags;
            return u;
        }
    };

    /**
     * Recorded-side tallies of one block, per core. Everything except
     * the miss-latency sum is config-independent; the sum's configured
     * per-access terms stay factored out (ml_long, ml_end_sum) and are
     * folded in by the engine per replay.
     */
    struct RecTally
    {
        Counters rec; //!< miss_latency_sum deliberately left 0.
        std::uint64_t ml_long = 0;    //!< Successful long-L2 walks.
        std::uint64_t ml_end_sum = 0; //!< Sum of recorded walk cycles.
    };

    struct Block
    {
        unsigned resets = 0;
        /** Per-core causal streams: block records in seq order. */
        std::vector<std::vector<const trace::Record *>> streams;
        /** execs[c] has exactly one more element than spans[c]. */
        std::vector<std::vector<Range>> execs, spans;
        /** Per fault-service round, the span order: (fault ts, core). */
        std::vector<std::vector<unsigned>> rounds;
        /** Parsed units of all exec segments, in stream order;
         *  exec_units[c][k] is the unit range of exec segment k. */
        std::vector<std::vector<Unit>> units;
        std::vector<std::vector<WalkInfo>> walks;
        std::vector<std::vector<Range>> exec_units;
        std::vector<RecTally> tallies;
    };

    unsigned num_cores = 0;
    bool babelfish = false;
    /**
     * The decoded trace records, owned. Every Record pointer in the
     * blocks below (streams, WalkInfo) points into these vectors, which
     * are never touched again after construction — that immutability is
     * what makes a schedule shareable across threads.
     */
    std::vector<std::vector<trace::Record>> records;
    std::vector<Block> blocks;

    /**
     * @{
     * @name Synthesis knowledge (sweeps only)
     * Leaf attributes learned from every TlbFill event and page-table
     * entry addresses learned from every walk step, so walks the
     * recording skipped (it hit, a smaller replayed TLB missed) can be
     * synthesized with the right depth, O-PC attributes and PWC tags.
     * Keyed by PID with a CCID fallback so BabelFish's group-shared
     * tables keep aliasing in the replayed PWC. Learned once from the
     * whole trace (canonical order, last fill wins) and shared
     * read-only by every engine.
     */
    FlatMap<LeafAttr> attr_owned[numPageSizes]; //!< Owner: filling PCID.
    FlatMap<LeafAttr> attr_shared[numPageSizes]; //!< Owner: CCID.
    FlatMap<Addr> memo_pid;  //!< (levelBaseKey, PID) -> table base.
    FlatMap<Addr> memo_ccid; //!< (levelBaseKey, CCID) -> table base.
    /** @} */

    /** Sub-4K-page key identifying (level, table) for the memo maps. */
    static std::uint64_t
    levelBaseKey(Addr va, int level)
    {
        return (vm::tableBase(va, level) >> basePageShift) |
               (std::uint64_t{static_cast<unsigned>(level)} << 50);
    }

    void
    learnFill(const trace::Record &f)
    {
        const auto size = static_cast<PageSize>(trace::fillSize(f.arg));
        const Vpn vpn = (f.vpage << basePageShift) >> pageShift(size);
        LeafAttr a;
        a.owned = trace::fillOwned(f.arg);
        a.orpc = trace::fillOrpc(f.arg);
        a.cow = trace::fillCow(f.arg);
        a.pc_bitmask = trace::fillBitmask(f.arg);
        if (babelfish && !a.owned)
            attr_shared[sizeIndex(size)].insert(vpn, f.ccid, a);
        else
            attr_owned[sizeIndex(size)].insert(vpn, trace::fillPcid(f.arg),
                                               a);
    }

    void
    learnStep(const trace::Record &s)
    {
        const auto level = static_cast<int>(trace::walkStepLevel(s.arg));
        const Addr va = s.vpage << basePageShift;
        const Addr base = trace::walkStepPaddr(s.arg) -
                          8ull * vm::tableIndex(va, level);
        const std::uint64_t key = levelBaseKey(va, level);
        memo_pid.insert(key, s.pid, base);
        memo_ccid.insert(key, s.ccid, base);
    }

    void
    learn(const std::vector<trace::Record> &block)
    {
        for (const trace::Record &r : block) {
            switch (static_cast<trace::EventType>(r.type)) {
              case trace::EventType::PwcHit:
              case trace::EventType::WalkStep:
                learnStep(r);
                break;
              case trace::EventType::TlbFill:
                learnFill(r);
                break;
              default:
                break;
            }
        }
    }

    /** Parse one exec segment's records into access units. */
    static void
    parseExec(const std::vector<const trace::Record *> &s, Range e,
              std::vector<Unit> &units, std::vector<WalkInfo> &walks)
    {
        std::size_t i = e.begin;
        while (i < e.end) {
            const trace::Record *r = s[i];
            const auto type = static_cast<trace::EventType>(r->type);
            if (type == trace::EventType::TlbL1Hit ||
                type == trace::EventType::TlbL2Hit) {
                units.push_back(Unit::fromRecord(*r, Unit::no_walk));
                ++i;
                continue;
            }
            if (type != trace::EventType::TlbMiss)
                throw ReplayError(std::string("unexpected ") +
                                  trace::eventTypeName(type) +
                                  " event outside a walk (corrupt or "
                                  "unreplayable trace)");
            if (i + 1 >= e.end ||
                s[i + 1]->type !=
                    static_cast<std::uint8_t>(
                        trace::EventType::WalkStart))
                throw ReplayError("TlbMiss not followed by WalkStart");
            WalkInfo w;
            std::size_t j = i + 2;
            while (j < e.end &&
                   (s[j]->type ==
                        static_cast<std::uint8_t>(
                            trace::EventType::PwcHit) ||
                    s[j]->type ==
                        static_cast<std::uint8_t>(
                            trace::EventType::WalkStep))) {
                if (w.num_steps == WalkInfo::max_steps)
                    throw ReplayError("walk with more steps than a "
                                      "4-level page table can produce");
                w.steps[w.num_steps++] = s[j++];
            }
            if (j >= e.end ||
                s[j]->type !=
                    static_cast<std::uint8_t>(trace::EventType::WalkEnd))
                throw ReplayError("walk without a WalkEnd");
            w.end = s[j++];
            if (static_cast<tlb::WalkStatus>(w.end->flags) ==
                tlb::WalkStatus::Ok) {
                if (j >= e.end ||
                    s[j]->type !=
                        static_cast<std::uint8_t>(
                            trace::EventType::TlbFill))
                    throw ReplayError(
                        "successful walk without a TlbFill");
                w.fill = s[j++];
            }
            units.push_back(Unit::fromRecord(
                *r, static_cast<std::uint32_t>(walks.size())));
            walks.push_back(w);
            i = j;
        }
    }

    /** Tally one unit's recorded-side counters (tallyRecorded's
     *  config-independent half; see RecTally). */
    static void
    tally(RecTally &t, const Unit &att, const WalkInfo *walk)
    {
        const std::uint8_t f = att.flags;
        const bool instr = f & trace::flagInstr;
        ++t.rec.accesses;
        switch (static_cast<trace::EventType>(att.type)) {
          case trace::EventType::TlbL1Hit:
            if (!(f & trace::flagCowFault))
                ++t.rec.l1_hits;
            return;
          case trace::EventType::TlbL2Hit:
            ++t.rec.l1_misses;
            ++(instr ? t.rec.l2_instr_hits : t.rec.l2_data_hits);
            if (f & trace::flagSharedHit)
                ++(instr ? t.rec.l2_instr_shared_hits
                         : t.rec.l2_data_shared_hits);
            if (f & trace::flagLongL2)
                ++t.rec.l2_long_accesses;
            return;
          default:
            break;
        }
        ++t.rec.l1_misses;
        ++(instr ? t.rec.l2_instr_misses : t.rec.l2_data_misses);
        if (f & trace::flagLongL2)
            ++t.rec.l2_long_accesses;
        ++t.rec.walks;
        for (unsigned si = 0; si < walk->num_steps; ++si) {
            const trace::Record *s = walk->steps[si];
            if (s->type ==
                static_cast<std::uint8_t>(trace::EventType::PwcHit))
                ++t.rec.pwc_hits;
            else if (trace::walkStepLevel(s->arg) >=
                     static_cast<unsigned>(vm::LevelPmd))
                ++t.rec.pwc_misses;
        }
        if (static_cast<tlb::WalkStatus>(walk->end->flags) ==
            tlb::WalkStatus::Ok) {
            ++t.rec.miss_latency_count;
            if (f & trace::flagLongL2)
                ++t.ml_long;
            t.ml_end_sum += walk->end->arg;
        }
    }

    /** The config-independent half of processBlock. */
    static Block
    analyze(unsigned n, const std::vector<trace::Record> &block)
    {
        Block sb;
        sb.streams.resize(n);
        for (const trace::Record &r : block) {
            if (r.core >= n)
                throw ReplayError("record core out of range");
            if (r.type ==
                static_cast<std::uint8_t>(trace::EventType::StatsReset)) {
                ++sb.resets;
                continue;
            }
            sb.streams[r.core].push_back(&r);
        }
        // (ts, core, seq) block order filtered per core is ts-ordered
        // but the causal ground truth is the per-core seq order.
        for (auto &s : sb.streams)
            std::sort(s.begin(), s.end(),
                      [](const trace::Record *a, const trace::Record *b) {
                          return a->seq < b->seq;
                      });

        // Per core: alternating exec segments and kernel spans, where a
        // span is the kernel events of one fault service (ending at its
        // FaultService record). execs[k] precedes spans[k].
        sb.execs.resize(n);
        sb.spans.resize(n);
        for (unsigned c = 0; c < n; ++c) {
            const auto &s = sb.streams[c];
            std::size_t i = 0;
            while (true) {
                const std::size_t b = i;
                while (i < s.size() && !isKernelEvent(s[i]->type))
                    ++i;
                sb.execs[c].push_back({b, i});
                if (i == s.size())
                    break;
                const std::size_t kb = i;
                while (i < s.size() && isKernelEvent(s[i]->type)) {
                    const bool fin =
                        s[i]->type ==
                        static_cast<std::uint8_t>(
                            trace::EventType::FaultService);
                    ++i;
                    if (fin)
                        break;
                }
                sb.spans[c].push_back({kb, i});
            }
        }

        // A core's k-th fault in a chunk is always serviced in round k
        // (one service per core per round), so index == round. Within a
        // round, spans apply in (fault ts, core) order.
        for (std::size_t round = 0;; ++round) {
            std::vector<unsigned> active;
            for (unsigned c = 0; c < n; ++c)
                if (round < sb.spans[c].size())
                    active.push_back(c);
            if (active.empty())
                break;
            std::sort(active.begin(), active.end(),
                      [&](unsigned a, unsigned b) {
                          const Cycles ta =
                              sb.streams[a][sb.spans[a][round].end - 1]
                                  ->ts;
                          const Cycles tb =
                              sb.streams[b][sb.spans[b][round].end - 1]
                                  ->ts;
                          return ta != tb ? ta < tb : a < b;
                      });
            sb.rounds.push_back(std::move(active));
        }

        // Parse every exec segment into access units up front and tally
        // the recorded-side counters, so per-sweep-point work is pure
        // model execution.
        sb.units.resize(n);
        sb.walks.resize(n);
        sb.exec_units.resize(n);
        sb.tallies.resize(n);
        for (unsigned c = 0; c < n; ++c) {
            for (const Range &e : sb.execs[c]) {
                const std::size_t b = sb.units[c].size();
                parseExec(sb.streams[c], e, sb.units[c], sb.walks[c]);
                sb.exec_units[c].push_back({b, sb.units[c].size()});
            }
            for (const Unit &u : sb.units[c])
                tally(sb.tallies[c], u,
                      u.walk == Unit::no_walk ? nullptr
                                              : &sb.walks[c][u.walk]);
        }
        return sb;
    }
};

struct ReplayEngine::Impl
{
    /**
     * One replayed core: the live backend translate::createBackend builds
     * from the replayed MmuParams, driven one attempt() per access unit, and
     * the WalkSource its misses walk through — the recorded walk
     * re-executed against the backend's PWC, or a walk synthesized from the
     * schedule's knowledge where the recording hit (sweeps only).
     */
    struct CoreModel final : translate::WalkSource
    {
        using Unit = ReplaySchedule::Impl::Unit;

        CoreModel(unsigned id, const ReplayParams &params,
                  stats::StatGroup *root)
            : p(params), group("core" + std::to_string(id), root),
              mmu("mmu", &group),
              backend(translate::createBackend(id, p, ts, mmu)),
              pwc(backend->pwc())
        {
            mmu.addStat("accesses", &accesses);
            // No fault service here: only the pipeline block is booked.
            translate::forEachPipelineStat(
                ts, [this](const char *name, const auto &stat) {
                    mmu.addStat(name, &stat);
                });
            mmu.addStat("walks", &walks);
            mmu.addStat("mem_steps", &mem_steps);
            mmu.addStat("synth_walks", &synth_walks);
        }

        /** Replay one access unit: one backend pass, no fault service. */
        void
        run(const Unit &u, const WalkInfo *walk_info)
        {
            ++accesses;
            unit = &u;
            recorded = walk_info;
            translate::Requester req;
            req.pcid = u.pcid;
            req.ccid = u.ccid;
            req.pid = u.pid;
            const AccessType type = (u.flags & trace::flagInstr)
                                        ? AccessType::Ifetch
                                    : (u.flags & trace::flagWrite)
                                        ? AccessType::Write
                                        : AccessType::Read;
            // A fault ends the unit: the recording's fault service and
            // retry are the spans and units that follow in the schedule.
            translate::Translation out;
            backend->attempt(req, u.vpage << basePageShift, type, 0, *this,
                             out);
        }

        void
        resetStats()
        {
            group.resetTree();
            rec = {};
        }

        // ---- The replay WalkSource ---------------------------------------

        int
        processBit(const translate::Requester &req, Addr va) override
        {
            (void)req;
            (void)va;
            // The recorded bit; one beyond a narrower O-PC is
            // unassignable.
            return unit->process_bit < static_cast<int>(p.opc_width)
                       ? unit->process_bit
                       : -1;
        }

        tlb::WalkResult
        walk(const translate::Requester &req, Addr va, AccessType type,
             Cycles now) override
        {
            (void)now;
            ++walks;
            return recorded ? replayRecordedWalk(*recorded)
                            : synthesizeWalk(req, va, type);
        }

        Cycles
        readMetaLine(std::uint64_t line, Cycles now) override
        {
            (void)line;
            (void)now;
            return p.mem_level_cycles[1]; // The private L2 data array.
        }

        void
        touchMetaLine(std::uint64_t line) override
        {
            (void)line; // No cache model: occupancy is not replayed.
        }

        /**
         * Deterministic synthetic table base for tables the recording never
         * walked: high bit set so it can never alias a real physical
         * address, page-aligned like a real table.
         */
        static Addr
        syntheticBase(std::uint32_t pid, std::uint64_t key)
        {
            std::uint64_t h = 1469598103934665603ull;
            auto mix = [&h](std::uint64_t v) {
                for (int i = 0; i < 8; ++i) {
                    h ^= (v >> (8 * i)) & 0xff;
                    h *= 1099511628211ull;
                }
            };
            mix(pid);
            mix(key);
            return (h & ~std::uint64_t{0xfff}) | (std::uint64_t{1} << 63);
        }

        Addr
        memoPaddr(std::uint32_t pid, std::uint16_t ccid, Addr va, int level)
        {
            const std::uint64_t key =
                ReplaySchedule::Impl::levelBaseKey(va, level);
            if (const Addr *base = knowledge->memo_pid.find(key, pid))
                return *base + 8ull * vm::tableIndex(va, level);
            if (const Addr *base = knowledge->memo_ccid.find(key, ccid))
                return *base + 8ull * vm::tableIndex(va, level);
            return syntheticBase(pid, key) + 8ull * vm::tableIndex(va, level);
        }

        /**
         * Model a narrower O-PC bitmask: an entry whose recorded PC bitmask
         * needs a bit the narrower field cannot hold becomes a private
         * (owned) entry — the kernel's per-process fallback, approximated
         * at fill time. A no-op at the recorded 32-bit width.
         */
        void
        adjustOpcWidth(tlb::TlbEntry &e) const
        {
            if (p.opc_width >= 32)
                return;
            const std::uint32_t maskw = (1u << p.opc_width) - 1;
            if (e.orpc && (e.pc_bitmask & ~maskw)) {
                e.owned = true;
                e.orpc = false;
                e.pc_bitmask = 0;
            } else {
                e.pc_bitmask &= maskw;
            }
        }

        /**
         * A walk's TLB fill template. Traces record no physical frames:
         * the VPN stands in for the PFN, which only the coalesced backend's
         * contiguity detector reads (VA adjacency as the PFN-adjacency
         * proxy, DESIGN.md §16).
         */
        tlb::TlbEntry
        fillEntry(PageSize size, Addr va, bool cow, bool owned, bool orpc,
                  std::uint32_t pc_bitmask) const
        {
            tlb::TlbEntry e;
            e.valid = true;
            e.size = size;
            e.vpn = va >> pageShift(size);
            e.ppn = e.vpn;
            e.writable = true;
            e.cow = cow;
            e.owned = owned;
            e.orpc = orpc;
            e.pc_bitmask = pc_bitmask;
            adjustOpcWidth(e);
            return e;
        }

        /**
         * One walk step at @p level: a level the PWC caches (PMD and up)
         * hits for the PWC's access time, or misses and fills; a miss or
         * an uncached level reads memory for mem_level_cycles[@p
         * mem_level]. Returns whether the PWC hit.
         */
        bool
        walkStep(int level, Addr paddr, unsigned mem_level, Cycles &cycles)
        {
            const bool cached = level >= vm::LevelPmd;
            if (cached && pwc.lookup(level, paddr)) {
                cycles += pwc.accessCycles();
                return true;
            }
            cycles += p.mem_level_cycles[mem_level];
            ++mem_steps;
            if (cached)
                pwc.fill(level, paddr);
            return false;
        }

        tlb::WalkResult
        replayRecordedWalk(const WalkInfo &w)
        {
            bool concordant = true;
            Cycles cycles = 0;
            for (unsigned si = 0; si < w.num_steps; ++si) {
                const trace::Record *s = w.steps[si];
                const auto level =
                    static_cast<int>(trace::walkStepLevel(s->arg));
                const bool cached = level >= vm::LevelPmd;
                const bool rec_pwc_hit =
                    s->type ==
                    static_cast<std::uint8_t>(trace::EventType::PwcHit);
                // A step the recording served from its PWC has no
                // recorded memory level; assume L2 (tables are hot).
                const unsigned ml = cached && rec_pwc_hit
                                        ? 1u
                                        : std::min<unsigned>(s->flags, 3u);
                const bool hit = walkStep(
                    level, trace::walkStepPaddr(s->arg), ml, cycles);
                concordant &= !cached || hit == rec_pwc_hit;
            }
            tlb::WalkResult out;
            // When the replayed PWC behaved exactly like the recording the
            // recorded cycle count is exact (it includes effects replay
            // cannot see, like the parallel O-PC mask fetch's excess).
            out.cycles = concordant ? w.end->arg : cycles;
            if (static_cast<tlb::WalkStatus>(w.end->flags) ==
                tlb::WalkStatus::Ok) {
                const trace::Record &f = *w.fill;
                out.status = tlb::WalkStatus::Ok;
                out.fill = fillEntry(
                    static_cast<PageSize>(trace::fillSize(f.arg)),
                    f.vpage << basePageShift, trace::fillCow(f.arg),
                    trace::fillOwned(f.arg), trace::fillOrpc(f.arg),
                    trace::fillBitmask(f.arg));
            }
            return out;
        }

        tlb::WalkResult
        synthesizeWalk(const translate::Requester &req, Addr va,
                       AccessType type)
        {
            ++synth_walks;
            // Find the leaf attributes the recording's hit entry carried,
            // probing the same size order as the TLB lookups.
            const LeafAttr *attr = nullptr;
            PageSize size = PageSize::Size4K;
            for (PageSize s : {PageSize::Size4K, PageSize::Size2M,
                               PageSize::Size1G}) {
                const Vpn vpn = va >> pageShift(s);
                if (const LeafAttr *a = knowledge->attr_owned[sizeIndex(s)]
                                            .find(vpn, req.pcid)) {
                    attr = a;
                    size = s;
                    break;
                }
                if (const LeafAttr *a = knowledge->attr_shared[sizeIndex(s)]
                                            .find(vpn, req.ccid)) {
                    attr = a;
                    size = s;
                    break;
                }
            }
            if (!attr)
                throw ReplayError(
                    "recording hit a translation that was never filled in "
                    "this trace (va page " + std::to_string(unit->vpage) +
                    "); replay requires cold-start traces — re-record "
                    "without BF_RESTORE");

            tlb::WalkResult out;
            for (int level = vm::LevelPgd; level >= leafLevel(size); --level)
                walkStep(level, memoPaddr(req.pid, req.ccid, va, level), 1,
                         out.cycles);
            // A write that the recording resolved as a CoW fault (or whose
            // leaf is CoW) walks but does not fill; the fault service and
            // retry stream are fixed by the trace.
            if (type == AccessType::Write &&
                (attr->cow || (unit->flags & trace::flagCowFault)))
                return out;
            out.status = tlb::WalkStatus::Ok;
            out.fill = fillEntry(size, va, attr->cow, attr->owned, attr->orpc,
                                 attr->pc_bitmask);
            return out;
        }

        const ReplayParams &p;
        stats::StatGroup group;
        stats::StatGroup mmu;
        translate::TranslateStats ts;
        std::unique_ptr<translate::PipelineBackend> backend;
        tlb::Pwc &pwc; //!< The backend's PWC, which walks step through.

        stats::Scalar accesses;
        stats::Scalar walks;
        stats::Scalar mem_steps;
        stats::Scalar synth_walks; //!< Walks synthesized (sweeps only).

        Counters rec; //!< Tallied from the trace events themselves.

        /**
         * The schedule being replayed: synthesis consults its learned
         * attribute/memo tables. Set by run(), read-only here.
         */
        const ReplaySchedule::Impl *knowledge = nullptr;
        const Unit *unit = nullptr;         //!< The unit being replayed.
        const WalkInfo *recorded = nullptr; //!< Its recorded walk, if any.
    };

    Impl(const ReplayParams &params, const trace::TraceHeader &hdr)
        : p(params), header(hdr), root("replay")
    {
        checkReplayable(header);
        if (p.pwc.entries_per_level == 0 || p.pwc.levels == 0 ||
            p.pwc.assoc == 0)
            throw ReplayError("replay needs a non-degenerate PWC "
                              "geometry");
        for (unsigned c = 0; c < header.num_cores; ++c)
            cores.push_back(std::make_unique<CoreModel>(c, p, &root));
    }

    ReplayParams p;
    trace::TraceHeader header;
    stats::StatGroup root;
    std::vector<std::unique_ptr<CoreModel>> cores;

    // ---- Kernel spans -------------------------------------------------

    void
    applySpan(unsigned core,
              const std::vector<const trace::Record *> &s, size_t begin,
              size_t end)
    {
        for (size_t i = begin; i < end; ++i) {
            const trace::Record *r = s[i];
            switch (static_cast<trace::EventType>(r->type)) {
              case trace::EventType::Shootdown: {
                vm::TlbInvalidate inv;
                inv.kind =
                    static_cast<vm::TlbInvalidate::Kind>(r->flags);
                inv.ccid = r->ccid;
                inv.pcid = trace::shootdownPcid(r->arg);
                inv.size = static_cast<PageSize>(
                    trace::shootdownSize(r->arg));
                inv.num_pages = trace::shootdownPages(r->arg);
                inv.vpn = r->vpage >>
                          (pageShift(inv.size) - basePageShift);
                for (auto &cm : cores)
                    cm->backend->applyInvalidate(inv);
                break;
              }
              case trace::EventType::FaultService:
                // A raced CoW fault resolved without kernel work: only
                // the faulting core's stale entry is dropped
                // (Mmu::serviceFault's FaultKind::None path).
                if (trace::faultDeclaredCow(r->arg) &&
                    static_cast<vm::FaultKind>(r->flags) ==
                        vm::FaultKind::None) {
                    const auto size = static_cast<PageSize>(
                        trace::faultStaleSize(r->arg));
                    vm::TlbInvalidate inv;
                    inv.kind = vm::TlbInvalidate::Kind::Page;
                    inv.ccid = r->ccid;
                    inv.pcid = trace::faultPcid(r->arg);
                    inv.size = size;
                    inv.num_pages = 1;
                    inv.vpn = r->vpage >>
                              (pageShift(size) - basePageShift);
                    cores[core]->backend->applyInvalidate(inv);
                }
                break;
              default:
                break; // CowPrivatize / MaskFallback: informational.
            }
        }
    }

    // ---- Exec segments ------------------------------------------------

    void
    processExec(unsigned core, const ReplaySchedule::Impl::Block &sb,
                std::size_t seg)
    {
        CoreModel &cm = *cores[core];
        const auto range = sb.exec_units[core][seg];
        const auto &units = sb.units[core];
        const auto &walks = sb.walks[core];
        for (std::size_t i = range.begin; i < range.end; ++i)
            cm.run(units[i],
                   units[i].walk == CoreModel::Unit::no_walk
                       ? nullptr
                       : &walks[units[i].walk]);
    }

    // ---- Per-block driver ---------------------------------------------

    /**
     * Replay the recording's global order: all bound segments, then
     * rounds of fault services — the round's spans in (fault ts, core)
     * order, then the faulting cores' resumed segments.
     */
    void
    executeBlock(const ReplaySchedule::Impl::Block &sb)
    {
        // System::resetStats happens between chunks; its marker leads
        // the next block, so the reset applies before any of its events.
        for (unsigned i = 0; i < sb.resets; ++i)
            for (auto &cm : cores)
                cm->resetStats();

        const unsigned n = static_cast<unsigned>(cores.size());

        // The recorded-side tallies were accumulated per block when the
        // schedule was built (they are config-independent); only the
        // miss-latency sum folds in configured per-access costs here.
        const bool aslr_transform =
            p.babelfish && p.aslr == vm::AslrMode::Hw;
        for (unsigned c = 0; c < n; ++c) {
            const auto &t = sb.tallies[c];
            Counters d = t.rec;
            d.miss_latency_sum =
                t.rec.miss_latency_count *
                    (1 + (aslr_transform ? p.aslr_transform_cycles : 0) +
                     p.l2_4k.access_cycles) +
                t.ml_long * p.l2_4k.bitmask_extra_cycles + t.ml_end_sum;
            cores[c]->rec += d;
        }

        for (unsigned c = 0; c < n; ++c)
            processExec(c, sb, 0);
        for (size_t round = 0; round < sb.rounds.size(); ++round) {
            for (unsigned c : sb.rounds[round])
                applySpan(c, sb.streams[c], sb.spans[c][round].begin,
                          sb.spans[c][round].end);
            for (unsigned c = 0; c < n; ++c)
                if (round < sb.spans[c].size())
                    processExec(c, sb, round + 1);
        }
    }

    Counters
    replayedOf(const CoreModel &cm) const
    {
        const translate::TranslateStats &ts = cm.ts;
        const tlb::Pwc &pwc = cm.pwc;
        Counters c;
        c.accesses = cm.accesses.value();
        c.l1_hits = ts.l1_hits.value();
        c.l1_misses = ts.l1_misses.value();
        c.l2_data_hits = ts.l2_data_hits.value();
        c.l2_data_misses = ts.l2_data_misses.value();
        c.l2_instr_hits = ts.l2_instr_hits.value();
        c.l2_instr_misses = ts.l2_instr_misses.value();
        c.l2_data_shared_hits = ts.l2_data_shared_hits.value();
        c.l2_instr_shared_hits = ts.l2_instr_shared_hits.value();
        c.l2_long_accesses = ts.l2_long_accesses.value();
        c.walks = cm.walks.value();
        c.pwc_hits = pwc.hits.value();
        c.pwc_misses = pwc.misses.value();
        c.miss_latency_count = ts.miss_latency.count();
        c.miss_latency_sum = ts.miss_latency.sum();
        return c;
    }
};

ReplayEngine::ReplayEngine(const ReplayParams &params,
                           const trace::TraceHeader &header)
    : impl_(std::make_unique<Impl>(params, header))
{
}

ReplayEngine::~ReplayEngine() = default;

void
ReplayEngine::run(trace::TraceReader &reader)
{
    std::vector<std::vector<trace::Record>> blocks;
    {
        std::vector<trace::Record> block;
        while (reader.nextBlock(block))
            blocks.push_back(std::move(block));
    }
    const ReplaySchedule schedule(impl_->header, std::move(blocks));
    run(schedule);
    for (auto &cm : impl_->cores)
        cm->knowledge = nullptr; // The local schedule dies here.
}

void
ReplayEngine::run(const ReplaySchedule &schedule)
{
    if (schedule.numCores() != numCores())
        throw ReplayError("schedule was built for a different core "
                          "count than this engine's trace header");
    for (auto &cm : impl_->cores)
        cm->knowledge = schedule.impl_.get();
    for (const auto &sb : schedule.impl_->blocks)
        impl_->executeBlock(sb);
}

ReplaySchedule::ReplaySchedule(
    const trace::TraceHeader &header,
    const std::vector<std::vector<trace::Record>> &blocks)
    : ReplaySchedule(header,
                     std::vector<std::vector<trace::Record>>(blocks))
{
}

ReplaySchedule::ReplaySchedule(
    const trace::TraceHeader &header,
    std::vector<std::vector<trace::Record>> &&blocks)
    : impl_(std::make_unique<Impl>())
{
    checkReplayable(header);
    impl_->num_cores = header.num_cores;
    impl_->babelfish = header.config.babelfish;
    // Take ownership first: analyze() stores pointers to individual
    // records, so they must already live in their final home.
    impl_->records = std::move(blocks);
    impl_->blocks.reserve(impl_->records.size());
    for (const auto &block : impl_->records) {
        impl_->blocks.push_back(Impl::analyze(header.num_cores, block));
        impl_->learn(block);
    }
}

ReplaySchedule::~ReplaySchedule() = default;

unsigned
ReplaySchedule::numCores() const
{
    return impl_->num_cores;
}

unsigned
ReplayEngine::numCores() const
{
    return static_cast<unsigned>(impl_->cores.size());
}

Counters
ReplayEngine::replayed(unsigned core) const
{
    return impl_->replayedOf(*impl_->cores.at(core));
}

Counters
ReplayEngine::recorded(unsigned core) const
{
    return impl_->cores.at(core)->rec;
}

Counters
ReplayEngine::replayedTotal() const
{
    Counters total;
    for (const auto &cm : impl_->cores)
        total += impl_->replayedOf(*cm);
    return total;
}

Counters
ReplayEngine::recordedTotal() const
{
    Counters total;
    for (const auto &cm : impl_->cores)
        total += cm->rec;
    return total;
}

std::vector<CounterDiff>
ReplayEngine::validate() const
{
    std::vector<CounterDiff> diffs;
    for (unsigned c = 0; c < numCores(); ++c) {
        const Counters rec = recorded(c);
        const Counters rep = replayed(c);
        forEachCounter(
            [&](const char *name, const std::uint64_t &recorded_v,
                std::uint64_t replayed_v) {
                if (&recorded_v != &rec.accesses && recorded_v != replayed_v)
                    diffs.push_back({"core" + std::to_string(c) + "." + name,
                                     c, recorded_v, replayed_v});
            },
            rec, rep);
    }
    return diffs;
}

std::string
ReplayEngine::statsJson() const
{
    return stats::toJsonString(impl_->root);
}

} // namespace bf::replay
