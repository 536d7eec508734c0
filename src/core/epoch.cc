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

    // Single-run fast path: one core issued every event this chunk
    // (FaaS groups run on one core), so its log already is the
    // canonical order.
    if (live == 1) {
        const EpochLog &log = *heads[0].log;
        for (std::size_t i = 0; i < log.size(); ++i)
            emitEvent(log, i, heads[0].core, out);
        return;
    }

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
    : stripe_count_(extra_workers + 1),
      cursors_(std::make_unique<BlockCursor[]>(stripe_count_))
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
BoundPool::drainBlock(unsigned block, const std::function<void(unsigned)> &fn)
{
    const unsigned end =
        block + 1 == stripe_count_ ? n_ : blockBegin(block + 1);
    std::atomic<unsigned> &cursor = cursors_[block].next;
    // Cheap pre-check keeps steal sweeps from bumping exhausted
    // cursors; the fetch_add below is the authoritative unique claim.
    while (cursor.load(std::memory_order_relaxed) < end) {
        const unsigned i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= end)
            break;
        fn(i);
    }
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
        const auto &fn = *job_;
        // Own block first, then steal from the others round-robin.
        for (unsigned b = 0; b < stripe_count_; ++b)
            drainBlock((stripe + b) % stripe_count_, fn);
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
    for (unsigned s = 0; s < stripe_count_; ++s)
        cursors_[s].next.store(blockBegin(s), std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    // The caller is stripe 0: drain its block, then steal.
    for (unsigned b = 0; b < stripe_count_; ++b)
        drainBlock(b, fn);
    const unsigned workers = static_cast<unsigned>(threads_.size());
    spinUntil([&] {
        return done_.load(std::memory_order_acquire) == workers;
    });
    job_ = nullptr;
}

} // namespace bf::core
