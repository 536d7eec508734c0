#include "common/stats.hh"

#include <cmath>
#include <iomanip>
#include <type_traits>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::stats
{

std::uint64_t
Distribution::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    bf_assert(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    if (rank == 0)
        rank = 1;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cumulative += buckets_[i];
        if (cumulative >= rank)
            return i == 0 ? 0 : std::uint64_t{1} << i;
    }
    return max_;
}

double
LatencyTracker::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0;
    for (double s : samples_)
        sum += s;
    return sum / static_cast<double>(samples_.size());
}

void
LatencyTracker::sort() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
LatencyTracker::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    sort();
    bf_assert(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    const auto n = samples_.size();
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 *
                                                   static_cast<double>(n)));
    if (rank > 0)
        --rank;
    return samples_[std::min(rank, n - 1)];
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.push_back(this);
}

void
StatGroup::addStat(const std::string &name, const Scalar *stat)
{
    bf_assert(!scalars_.count(name), "duplicate stat ", path(), ".", name);
    scalars_[name] = stat;
}

void
StatGroup::addStat(const std::string &name, const Average *stat)
{
    bf_assert(!averages_.count(name), "duplicate stat ", path(), ".", name);
    averages_[name] = stat;
}

void
StatGroup::addStat(const std::string &name, const LatencyTracker *stat)
{
    bf_assert(!latencies_.count(name), "duplicate stat ", path(), ".", name);
    latencies_[name] = stat;
}

void
StatGroup::addStat(const std::string &name, const Distribution *stat)
{
    bf_assert(!distributions_.count(name), "duplicate stat ", path(), ".",
              name);
    distributions_[name] = stat;
}

std::string
StatGroup::path() const
{
    if (!parent_)
        return name_;
    return parent_->path() + "." + name_;
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string prefix = path();
    for (const auto &[name, stat] : scalars_)
        os << prefix << "." << name << " " << stat->value() << "\n";
    for (const auto &[name, stat] : averages_) {
        os << prefix << "." << name << ".mean " << stat->mean() << "\n";
        os << prefix << "." << name << ".count " << stat->count() << "\n";
    }
    for (const auto &[name, stat] : latencies_) {
        os << prefix << "." << name << ".mean " << stat->mean() << "\n";
        os << prefix << "." << name << ".p95 " << stat->percentile(95)
           << "\n";
        os << prefix << "." << name << ".count " << stat->count() << "\n";
    }
    for (const auto &[name, stat] : distributions_) {
        os << prefix << "." << name << ".mean " << stat->mean() << "\n";
        os << prefix << "." << name << ".p95 " << stat->percentile(95)
           << "\n";
        os << prefix << "." << name << ".count " << stat->count() << "\n";
    }
    for (const auto *child : children_)
        child->dump(os);
}

void
StatGroup::accept(StatVisitor &visitor) const
{
    visitor.beginGroup(*this);
    for (const auto &[name, stat] : scalars_)
        visitor.visitScalar(*this, name, *stat);
    for (const auto &[name, stat] : averages_)
        visitor.visitAverage(*this, name, *stat);
    for (const auto &[name, stat] : latencies_)
        visitor.visitLatency(*this, name, *stat);
    for (const auto &[name, stat] : distributions_)
        visitor.visitDistribution(*this, name, *stat);
    for (const auto *child : children_)
        child->accept(visitor);
    visitor.endGroup(*this);
}

namespace
{

/**
 * A registered stat as @p Self (a const or mutable StatGroup) may touch
 * it. The registered pointers are const because normal clients only
 * read; the stats live in the owning components, and restoreStats and
 * resetTree are the two sanctioned writers through this registry.
 */
template <class Self, class T>
auto &
registered(const T *ptr)
{
    using Like = std::conditional_t<std::is_const_v<Self>, const T, T>;
    return const_cast<Like &>(*ptr);
}

} // namespace

// Restore walks the same canonical order save used; any divergence in
// group or stat name means the rebuilt world's stat tree does not match
// the checkpointed one, which restore must refuse to paper over.
template <class Ar, class Self>
void
StatGroup::io(Ar &ar, Self &self)
{
    const std::string at =
        "checkpoint stat tree mismatch at " + self.path() + ": ";
    const auto each = [&](const auto &stats, const char *kind) {
        ar.expect(static_cast<std::uint32_t>(stats.size()),
                  at + kind + " count");
        for (const auto &[name, ptr] : stats) {
            ar.expect(name, at + kind + " '" + name + "'");
            std::remove_cvref_t<decltype(*ptr)>::io(
                ar, registered<Self>(ptr));
        }
    };

    ar.expect(self.name_, at + "group name");
    each(self.scalars_, "scalar");
    each(self.averages_, "average");
    each(self.latencies_, "latency");
    each(self.distributions_, "distribution");
    ar.expect(static_cast<std::uint32_t>(self.children_.size()),
              at + "child group count");
    for (StatGroup *child : self.children_)
        io(ar, static_cast<Self &>(*child));
}

void
StatGroup::saveStats(snap::ArchiveWriter &ar) const
{
    io(ar, *this);
}

void
StatGroup::restoreStats(snap::ArchiveReader &ar)
{
    io(ar, *this);
}

void
StatGroup::resetTree()
{
    const auto each = [](const auto &stats) {
        for (const auto &[name, ptr] : stats)
            registered<StatGroup>(ptr).reset();
    };
    each(scalars_);
    each(averages_);
    each(latencies_);
    each(distributions_);
    for (StatGroup *child : children_)
        child->resetTree();
}

const Scalar *
StatGroup::findScalar(const std::string &rel_path) const
{
    const auto dot = rel_path.find('.');
    if (dot == std::string::npos) {
        auto it = scalars_.find(rel_path);
        return it == scalars_.end() ? nullptr : it->second;
    }
    const std::string head = rel_path.substr(0, dot);
    const std::string tail = rel_path.substr(dot + 1);
    for (const auto *child : children_) {
        if (child->name_ == head)
            return child->findScalar(tail);
    }
    return nullptr;
}

std::uint64_t
StatGroup::scalar(const std::string &rel_path) const
{
    const Scalar *stat = findScalar(rel_path);
    if (!stat)
        bf_panic("no such stat: ", path(), ".", rel_path);
    return stat->value();
}

bool
StatGroup::hasScalar(const std::string &rel_path) const
{
    return findScalar(rel_path) != nullptr;
}

} // namespace bf::stats
