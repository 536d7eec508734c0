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

} // namespace

void
mergeEpochLogs(const std::vector<std::unique_ptr<EpochLog>> &logs,
               WeaveStream &out)
{
    out.clear();
    bf_assert(logs.size() <= 256, "EpochEvent packs core ids in a byte");

    // One merge head per non-empty log. ts is cached so the min-scan
    // below reads a dense local array, not the logs.
    struct Head
    {
        Cycles ts;
        const EpochEvent *next;
        const EpochEvent *end;
    };
    Head heads[256];
    unsigned live = 0;
    std::size_t total = 0;
    for (const auto &log : logs) {
        const std::vector<EpochEvent> &events = log->events();
        if (events.empty())
            continue;
        heads[live++] = {events.front().ts, events.data(),
                         events.data() + events.size()};
        total += events.size();
    }
    if (live == 0)
        return;
    out.reserve(total);

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
        out.push_back(*head.next);
        if (++head.next != head.end) {
            bf_assert(head.next->ts >= head.ts,
                      "epoch log not timestamp-ordered on core ",
                      unsigned(head.next->core));
            head.ts = head.next->ts;
        } else {
            // Drop the exhausted head; shifting keeps core order.
            for (unsigned h = min; h + 1 < live; ++h)
                heads[h] = heads[h + 1];
            --live;
        }
    }
    out.insert(out.end(), heads[0].next, heads[0].end);
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
