/**
 * @file
 * Periodic time-series sampling of simulation counters.
 *
 * A StatSampler holds named probes (closures reading cumulative
 * counters) and, driven by System's lockstep loop, snapshots all of
 * them every `interval` cycles. The resulting series makes warm-up vs
 * steady-state behaviour visible — e.g. TLB MPKI settling after the
 * shared entries are in place, or a minor-fault burst at container
 * bring-up — and is dumped alongside the final stats in the benches'
 * BENCH_<name>.json reports.
 *
 * Probes read *cumulative* counters: within one measurement phase every
 * probe is monotone non-decreasing, and consumers difference adjacent
 * samples to recover rates. System::resetStats() zeroes the underlying
 * counters; the sampler records the phase boundary (each sample carries
 * a phase index) so a post-reset drop is not mistaken for counter
 * wraparound.
 */

#ifndef BF_CORE_SAMPLER_HH
#define BF_CORE_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"

namespace bf::core
{

/** Snapshots named counters every fixed number of cycles. */
class StatSampler
{
  public:
    /** Reads one cumulative counter value. */
    using Probe = std::function<std::uint64_t()>;

    /** One snapshot of every probe. */
    struct Point
    {
        Cycles cycle = 0;     //!< Nominal sample time (k * interval).
        unsigned phase = 0;   //!< Increments at every resetStats().
        std::vector<std::uint64_t> values; //!< Aligned with names().
    };

    /** Register a probe; call before the first observe(). */
    void
    addProbe(std::string name, Probe probe)
    {
        names_.push_back(std::move(name));
        probes_.push_back(std::move(probe));
    }

    /** Set the sampling period; 0 disables sampling. */
    void
    setInterval(Cycles interval)
    {
        interval_ = interval;
        next_ = interval;
    }

    Cycles interval() const { return interval_; }

    /** Whether observe() will ever record anything. */
    bool enabled() const { return interval_ > 0 && !probes_.empty(); }

    /**
     * Called by the driver with the current barrier cycle; records one
     * sample per elapsed interval boundary. The driver advances in
     * chunks, so values are read at the barrier while the nominal
     * sample cycle is the boundary itself (documented approximation:
     * resolution = min(interval, lockstep chunk)).
     */
    void
    observe(Cycles now)
    {
        if (!enabled())
            return;
        while (next_ <= now) {
            takeSample(next_);
            next_ += interval_;
        }
    }

    /** Mark a phase boundary (counters were just reset). */
    void beginPhase() { ++phase_; }

    unsigned phase() const { return phase_; }
    const std::vector<std::string> &names() const { return names_; }
    const std::vector<Point> &points() const { return points_; }

    /** Drop recorded samples (not probes); restart the clock grid. */
    void
    clear()
    {
        points_.clear();
        next_ = interval_;
        phase_ = 0;
    }

    /**
     * @{
     * @name Checkpointing
     * The recorded points, the grid position (next_), the phase and the
     * interval — everything the timeseries JSON derives from — so the
     * restored run's series is byte-identical to the uninterrupted one.
     * Probes are closures and are NOT serialized; the rebuilt world
     * re-registers them (System::enableSampling) and restore() verifies
     * the names line up.
     */
    void save(snap::ArchiveWriter &ar) const { io(ar, *this); }
    void restore(snap::ArchiveReader &ar) { io(ar, *this); }
    /** @} */

    /**
     * Serialize as JSON:
     *   {"interval_cycles": N, "probes": ["a", ...],
     *    "samples": [{"cycle": C, "phase": P, "values": [v, ...]}, ...]}
     */
    void toJson(std::ostream &os) const;

    /** Convenience: toJson into a string. */
    std::string toJsonString() const;

  private:
    std::vector<std::string> names_;
    std::vector<Probe> probes_;
    std::vector<Point> points_;
    Cycles interval_ = 0;
    Cycles next_ = 0;
    unsigned phase_ = 0;

    void
    takeSample(Cycles cycle)
    {
        Point point;
        point.cycle = cycle;
        point.phase = phase_;
        point.values.reserve(probes_.size());
        for (const auto &probe : probes_)
            point.values.push_back(probe());
        points_.push_back(std::move(point));
    }

    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        ar.u64(self.interval_);
        ar.u64(self.next_);
        ar.u32(self.phase_);
        ar.expect(static_cast<std::uint32_t>(self.names_.size()),
                  "sampler probe-count mismatch");
        for (const std::string &name : self.names_)
            ar.expect(name, "sampler probe-name mismatch");
        ar.count64(self.points_);
        for (auto &point : self.points_) {
            ar.u64(point.cycle);
            ar.u32(point.phase);
            // One value per probe; the probes are config, so restore
            // sizes each row from the rebuilt probe list.
            if constexpr (Ar::loading)
                point.values.resize(self.names_.size());
            for (auto &value : point.values)
                ar.u64(value);
        }
    }
};

} // namespace bf::core

#endif // BF_CORE_SAMPLER_HH
