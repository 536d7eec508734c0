/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Components register named statistics in a StatGroup; groups nest to form
 * a tree (system.core0.mmu.l2tlb.hits). Stats can be dumped as aligned text
 * or harvested programmatically by the benches.
 */

#ifndef BF_COMMON_STATS_HH
#define BF_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace bf::stats
{

// Checkpointing (common/snapshot.hh); stats.cc pulls in the full type.
} // namespace bf::stats
namespace bf::snap
{
class ArchiveWriter;
class ArchiveReader;
} // namespace bf::snap
namespace bf::stats
{

/** A monotonically increasing counter. */
class Scalar
{
  public:
    Scalar() = default;

    /** Add delta to the counter. */
    void add(std::uint64_t delta = 1) { value_ += delta; }

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t delta) { value_ += delta; return *this; }

    /** Current count. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero (StatGroup::resetTree, end of warm-up). */
    void reset() { value_ = 0; }

    /** Overwrite the count (the attribution tenants' pid/ccid stats). */
    void restoreValue(std::uint64_t v) { value_ = v; }

    /** Checkpoint layout (common/snapshot.hh). */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.u64(self.value_);
    }

  private:
    std::uint64_t value_ = 0;
};

/** Mean of a stream of samples. */
class Average
{
  public:
    /** Record one sample. */
    void
    sample(double value)
    {
        sum_ += value;
        ++count_;
    }

    /** Arithmetic mean of all samples, 0 if empty. */
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Number of samples. */
    std::uint64_t count() const { return count_; }

    /** Sum of samples. */
    double sum() const { return sum_; }

    void reset() { sum_ = 0; count_ = 0; }

    /** Checkpoint layout (common/snapshot.hh). */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.f64(self.sum_);
        ar.u64(self.count_);
    }

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * A registered log2-bucketed distribution with approximate percentiles.
 *
 * Unlike LatencyTracker (exact, stores every sample) this is O(1) per
 * sample and O(64) memory, so it can sit on hot paths that fire millions
 * of times per run (TLB-miss and page-walk latencies). Bucket i counts
 * samples in [2^i, 2^(i+1)) (values 0 and 1 both land in bucket 0);
 * percentiles are nearest-rank over the cumulative bucket counts and
 * report the bucket's lower bound. All state is integer, so the exported
 * values — and the snapshot round-trip — are bit-exact regardless of
 * sample arrival order.
 */
class Distribution
{
  public:
    /** Record one sample. */
    void
    sample(std::uint64_t value)
    {
        std::size_t bucket = 0;
        for (std::uint64_t v = value; v > 1; v >>= 1)
            ++bucket;
        if (bucket >= buckets_.size())
            buckets_.resize(bucket + 1, 0);
        ++buckets_[bucket];
        ++count_;
        sum_ += value;
        max_ = std::max(max_, value);
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** Integer sum of all samples (order-independent). */
    std::uint64_t sum() const { return sum_; }

    /** Mean of the recorded samples, 0 if empty. */
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /** Largest sample recorded. */
    std::uint64_t max() const { return max_; }

    /**
     * Nearest-rank percentile over the bucket counts: the lower bound of
     * the bucket holding the p-th percentile sample (0 if empty).
     * @param p percentile in [0, 100].
     */
    std::uint64_t percentile(double p) const;

    /** Bucket counts (index i covers [2^i, 2^(i+1))). */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    void reset() { buckets_.clear(); count_ = 0; sum_ = 0; max_ = 0; }

    /**
     * Fold another distribution into this one. All state is integer and
     * bucket-wise additive, so merging is order-independent — the result
     * is bit-identical no matter how samples were split across the
     * merged parts (the attribution drain relies on this).
     */
    void
    merge(const Distribution &other)
    {
        if (other.buckets_.size() > buckets_.size())
            buckets_.resize(other.buckets_.size(), 0);
        for (std::size_t i = 0; i < other.buckets_.size(); ++i)
            buckets_[i] += other.buckets_[i];
        count_ += other.count_;
        sum_ += other.sum_;
        max_ = std::max(max_, other.max_);
    }

    /**
     * Fold a *window* of another distribution into this one: the
     * samples @p cur received since @p base was copied from it (no
     * reset in between). Buckets, count and sum are exact — bucket-wise
     * subtraction then addition, so folding consecutive windows is
     * bit-identical to merge()-ing the same samples. The window's exact
     * maximum is only observable when cur's overall maximum moved
     * during the window; otherwise the lower bound of the highest
     * bucket that grew stands in (always <= the true window max, and
     * max-over-all-windows still equals cur.max() exactly, because the
     * window in which the overall max arrived sees it move).
     *
     * This is what lets per-tenant attribution ride the global
     * miss-latency distribution by snapshot/delta instead of paying a
     * second sample() per event (see core::Core::flushAttribWindow).
     */
    void
    mergeDiff(const Distribution &cur, const Distribution &base)
    {
        if (cur.count_ == base.count_)
            return;
        if (cur.buckets_.size() > buckets_.size())
            buckets_.resize(cur.buckets_.size(), 0);
        std::uint64_t window_max = 0;
        for (std::size_t i = 0; i < cur.buckets_.size(); ++i) {
            const std::uint64_t before =
                i < base.buckets_.size() ? base.buckets_[i] : 0;
            const std::uint64_t delta = cur.buckets_[i] - before;
            if (delta) {
                buckets_[i] += delta;
                window_max = i ? std::uint64_t{1} << i : 0;
            }
        }
        count_ += cur.count_ - base.count_;
        sum_ += cur.sum_ - base.sum_;
        if (cur.max_ != base.max_)
            window_max = cur.max_;
        max_ = std::max(max_, window_max);
    }

    /** Checkpoint layout (common/snapshot.hh). */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.count32(self.buckets_);
        for (auto &bucket : self.buckets_)
            ar.u64(bucket);
        ar.u64(self.count_);
        ar.u64(self.sum_);
        ar.u64(self.max_);
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * Exact percentile tracker: stores all samples. Data-serving runs record
 * one latency per request (tens of thousands), so this stays small.
 */
class LatencyTracker
{
  public:
    /** Record one latency sample. */
    void sample(double value) { samples_.push_back(value); sorted_ = false; }

    /** Number of samples. */
    std::size_t count() const { return samples_.size(); }

    /** Mean latency, 0 if empty. */
    double mean() const;

    /**
     * The p-th percentile by nearest-rank, 0 if empty.
     * @param p percentile in [0, 100], e.g.\ 95 for tail latency.
     */
    double percentile(double p) const;

    void reset() { samples_.clear(); sorted_ = false; }

    /**
     * Checkpoint layout (common/snapshot.hh). Samples travel in
     * insertion order; neither run sorts mid-run, so the restored run's
     * summation order (and thus its exported mean) matches the
     * uninterrupted run bit-for-bit.
     */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.count64(self.samples_);
        for (double &sample : self.samples_)
            ar.f64(sample);
        if constexpr (Ar::loading)
            self.sorted_ = false;
    }

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;

    void sort() const;
};

class StatGroup;

/**
 * Read-only visitor over a StatGroup tree (see StatGroup::accept).
 *
 * For each group the walk calls beginGroup, then every registered stat
 * of that group (scalars, then averages, then latency trackers, then
 * distributions, each in name order), then recurses into the children in
 * registration order, and finally calls endGroup. Serializers
 * (stats_export.hh) and tests build on this instead of reaching into the
 * containers.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void beginGroup(const StatGroup &group) { (void)group; }
    virtual void endGroup(const StatGroup &group) { (void)group; }

    virtual void visitScalar(const StatGroup &group,
                             const std::string &name, const Scalar &stat)
    {
        (void)group; (void)name; (void)stat;
    }
    virtual void visitAverage(const StatGroup &group,
                              const std::string &name, const Average &stat)
    {
        (void)group; (void)name; (void)stat;
    }
    virtual void visitLatency(const StatGroup &group,
                              const std::string &name,
                              const LatencyTracker &stat)
    {
        (void)group; (void)name; (void)stat;
    }
    virtual void visitDistribution(const StatGroup &group,
                                   const std::string &name,
                                   const Distribution &stat)
    {
        (void)group; (void)name; (void)stat;
    }
};

/**
 * A named collection of statistics. Groups form a tree; dump() walks the
 * tree and prints "path.name value" lines like gem5's stats.txt.
 */
class StatGroup
{
  public:
    /**
     * @param name this group's path component.
     * @param parent enclosing group, or nullptr for a root.
     */
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a scalar under this group. */
    void addStat(const std::string &name, const Scalar *stat);
    /** Register an average under this group. */
    void addStat(const std::string &name, const Average *stat);
    /** Register a latency tracker under this group. */
    void addStat(const std::string &name, const LatencyTracker *stat);
    /** Register a distribution under this group. */
    void addStat(const std::string &name, const Distribution *stat);

    /** Fully qualified dotted path of this group. */
    std::string path() const;

    /** Print all stats in this group and its children. */
    void dump(std::ostream &os) const;

    /** Depth-first walk of this group and its children (see StatVisitor). */
    void accept(StatVisitor &visitor) const;

    /**
     * @{ @name Checkpointing
     * Serialize every stat in the tree in the canonical accept() order
     * (scalars, averages, latency trackers, distributions in name order;
     * children in registration order). Restore walks the same order against the
     * rebuilt tree and verifies each group and stat name, so a topology
     * mismatch surfaces as a SnapshotError naming the first divergence
     * rather than as silently scrambled counters.
     */
    void saveStats(snap::ArchiveWriter &ar) const;
    void restoreStats(snap::ArchiveReader &ar);
    /** @} */

    /**
     * Reset every stat registered in this group and its children (end
     * of warm-up). Registration is the one list of a component's
     * stats, so no component keeps a reset of its own.
     */
    void resetTree();

    /**
     * Look up a scalar's value by path relative to this group, e.g.\
     * "core0.l2tlb.hits". Panics if absent (tests rely on names).
     */
    std::uint64_t scalar(const std::string &rel_path) const;

    /** Whether a scalar with this relative path exists. */
    bool hasScalar(const std::string &rel_path) const;

    const std::string &name() const { return name_; }

    /** @{ @name Read-only container access (serializers, tests) */
    const std::vector<StatGroup *> &children() const { return children_; }
    const std::map<std::string, const Scalar *> &scalars() const
    {
        return scalars_;
    }
    const std::map<std::string, const Average *> &averages() const
    {
        return averages_;
    }
    const std::map<std::string, const LatencyTracker *> &latencies() const
    {
        return latencies_;
    }
    const std::map<std::string, const Distribution *> &distributions() const
    {
        return distributions_;
    }
    /** @} */

  private:
    template <class Ar, class Self> static void io(Ar &ar, Self &self);

    std::string name_;
    StatGroup *parent_ = nullptr;
    std::vector<StatGroup *> children_;
    std::map<std::string, const Scalar *> scalars_;
    std::map<std::string, const Average *> averages_;
    std::map<std::string, const LatencyTracker *> latencies_;
    std::map<std::string, const Distribution *> distributions_;

    const Scalar *findScalar(const std::string &rel_path) const;
};

} // namespace bf::stats

#endif // BF_COMMON_STATS_HH
