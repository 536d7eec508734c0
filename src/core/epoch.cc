#include "core/epoch.hh"

namespace bf::core
{

namespace
{

/** Spin briefly on @p cond, then fall back to yielding. */
template <typename Cond>
void
spinUntil(Cond cond)
{
    unsigned spins = 0;
    while (!cond()) {
        if (++spins > 4096) {
            std::this_thread::yield();
            spins = 0;
        }
    }
}

/** Append event @p i of @p log (issued by @p core) to @p out. */
void
emitEvent(const EpochLog &log, std::size_t i, unsigned core,
          WeaveStream &out)
{
    out.ts.push_back(log.ts(i));
    out.paddr.push_back(log.paddr(i));
    out.core.push_back(static_cast<std::uint8_t>(core));
    out.flags.push_back(log.flags(i));
    out.slot.push_back(log.slot(i));
}

} // namespace

void
mergeEpochLogs(const std::vector<std::unique_ptr<EpochLog>> &logs,
               WeaveStream &out)
{
    out.clear();
    bf_assert(logs.size() <= 256, "WeaveStream packs core ids in a byte");

    // One merge head per non-empty log. ts is cached so the min-scan
    // below reads a dense local array, not the logs.
    struct Head
    {
        Cycles ts;
        unsigned core;
        const EpochLog *log;
        std::size_t idx;
    };
    Head heads[256];
    unsigned live = 0;
    std::size_t total = 0;
    for (unsigned c = 0; c < logs.size(); ++c) {
        const EpochLog &log = *logs[c];
        if (log.empty())
            continue;
        heads[live++] = {log.ts(0), c, &log, 0};
        total += log.size();
    }
    if (live == 0)
        return;

    out.ts.reserve(total);
    out.paddr.reserve(total);
    out.core.reserve(total);
    out.flags.reserve(total);
    out.slot.reserve(total);

    // k-way ladder: repeatedly emit the (ts, core)-minimal head. Heads
    // are kept in core order, so the strict `<` scan resolves timestamp
    // ties toward the lower core id, and a head's events leave in
    // append (= seq) order — together the historical (ts, core, seq)
    // sort key, which is unique, so the emitted order is exactly the
    // order the global sort produced.
    while (live > 1) {
        unsigned min = 0;
        for (unsigned h = 1; h < live; ++h) {
            if (heads[h].ts < heads[min].ts)
                min = h;
        }
        Head &head = heads[min];
        emitEvent(*head.log, head.idx, head.core, out);
        if (++head.idx < head.log->size()) {
            const Cycles next = head.log->ts(head.idx);
            bf_assert(next >= head.ts,
                      "epoch log not timestamp-ordered on core ",
                      head.core);
            head.ts = next;
        } else {
            // Drop the exhausted head; shifting keeps core order.
            for (unsigned h = min; h + 1 < live; ++h)
                heads[h] = heads[h + 1];
            --live;
        }
    }
    const Head &last = heads[0];
    for (std::size_t i = last.idx; i < last.log->size(); ++i)
        emitEvent(*last.log, i, last.core, out);
}

BoundPool::BoundPool(unsigned extra_workers)
{
    threads_.reserve(extra_workers);
    for (unsigned i = 0; i < extra_workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i + 1); });
}

BoundPool::~BoundPool()
{
    stop_.store(true, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
    for (auto &t : threads_)
        t.join();
}

void
BoundPool::runStripe(unsigned stripe) const
{
    const std::uint64_t n = n_, stripes = threads_.size() + 1;
    const auto begin = static_cast<unsigned>(n * stripe / stripes);
    const auto end = static_cast<unsigned>(n * (stripe + 1) / stripes);
    for (unsigned i = begin; i < end; ++i)
        (*job_)(i);
}

void
BoundPool::workerLoop(unsigned stripe)
{
    std::uint64_t seen = 0;
    for (;;) {
        spinUntil([&] {
            return generation_.load(std::memory_order_acquire) != seen;
        });
        if (stop_.load(std::memory_order_acquire))
            return;
        seen = generation_.load(std::memory_order_acquire);
        runStripe(stripe);
        // Last touch of round state: after this the worker only reads
        // generation_, so the caller may safely set up the next round.
        done_.fetch_add(1, std::memory_order_release);
    }
}

void
BoundPool::run(unsigned n, const std::function<void(unsigned)> &fn)
{
    if (threads_.empty() || n <= 1) {
        for (unsigned i = 0; i < n; ++i)
            fn(i);
        return;
    }
    job_ = &fn;
    n_ = n;
    done_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    runStripe(0);
    const unsigned workers = static_cast<unsigned>(threads_.size());
    spinUntil([&] {
        return done_.load(std::memory_order_acquire) == workers;
    });
    job_ = nullptr;
}

} // namespace bf::core
