/**
 * @file
 * Simulator self-profiling: where does host wall-clock go, and which
 * subsystems dominate the event stream?
 *
 * A SimProfiler attaches to an EventQueue (EventQueue::setProfiler)
 * and accumulates, per event-source tag (sim/ev_source.hh):
 *  - event counts,
 *  - host nanoseconds, measured with steady_clock reads batched over
 *    K events and distributed across the sources inside each batch
 *    proportionally to their event counts (keeps overhead < 5%),
 *  - queue-occupancy and schedule-horizon histograms (sampled), and
 *  - an events/sec-vs-simulated-time series (stride-downsampled).
 *
 * Results are emitted as a versioned JSON report
 * (`umany.sim_profile.v2`) and a human-readable table; see
 * EXPERIMENTS.md for the schema.
 *
 * Detached cost is one branch per kernel operation; attached cost is
 * a few increments per event plus one clock read per batch.
 */

#ifndef UMANY_OBS_SIMPROF_HH
#define UMANY_OBS_SIMPROF_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/ev_source.hh"
#include "sim/types.hh"
#include "stats/histogram.hh"

namespace umany
{

class SimProfiler
{
  public:
    /** Events per steady_clock read (amortizes the ~20ns read). */
    static constexpr std::uint32_t defaultBatchEvents = 64;
    /** 1-in-N sampling of the schedule-horizon histogram. */
    static constexpr std::uint32_t horizonSampleShift = 5;
    /** Timeline points before the stride doubles (downsampling). */
    static constexpr std::size_t maxTimelinePoints = 1024;

    explicit SimProfiler(
        std::uint32_t batch_events = defaultBatchEvents);

    /**
     * @name Kernel hooks (EventQueue calls these while attached)
     *
     * Defined inline: they run once per event on a kernel whose
     * whole step is ~100ns, so two out-of-line calls here would by
     * themselves blow the <5% overhead budget.
     * @{
     */
    /** An event was scheduled @p horizon ticks into the future. */
    void
    onSchedule(const EvTag &tag, Tick horizon)
    {
        (void)tag;
        // Horizons are sampled, not exhaustive: the histogram only
        // needs the shape of the distribution, and sampling keeps
        // the per-schedule cost to a counter test on most calls.
        if ((schedSeen_++ & ((1u << horizonSampleShift) - 1)) == 0)
            horizon_.add(horizon);
    }

    /** An event finished executing at simulated time @p now. */
    void
    onExecuted(const EvTag &tag, std::size_t queue_depth, Tick now)
    {
        ++batchCount_[static_cast<std::size_t>(tag.src)];
        lastNow_ = now;
        if (++batchN_ >= batchEvents_) {
            occupancy_.add(queue_depth);
            flushBatch();
        }
    }
    /** @} */

    /**
     * Close the final (partial) clock batch so per-source host-time
     * shares sum to exactly the measured total. Idempotent; call
     * after detaching from the queue and before reading results.
     */
    void finalize();

    /** @name Results @{ */
    std::uint64_t totalEvents() const { return totalEvents_; }
    std::uint64_t events(EvSrc src) const
    {
        return srcEvents_[static_cast<std::size_t>(src)];
    }
    double hostNs(EvSrc src) const
    {
        return srcHostNs_[static_cast<std::size_t>(src)];
    }
    /** Total host time across all closed batches (ns). */
    double totalHostNs() const { return totalHostNs_; }
    const Histogram &occupancyHist() const { return occupancy_; }
    const Histogram &horizonHist() const { return horizon_; }
    /** @} */

    /** The `umany.sim_profile.v2` JSON document. */
    std::string toJson() const;

    /** Human-readable report table (driver prints it to stderr). */
    std::string formatTable() const;

  private:
    using HostClock = std::chrono::steady_clock;

    void flushBatch();

    const std::uint32_t batchEvents_;

    /** @name Per-source accounting @{ */
    std::uint64_t srcEvents_[kNumEvSrcs] = {};
    double srcHostNs_[kNumEvSrcs] = {};
    std::uint32_t batchCount_[kNumEvSrcs] = {};
    std::uint32_t batchN_ = 0;
    std::uint64_t totalEvents_ = 0;
    double totalHostNs_ = 0.0;
    HostClock::time_point batchStart_;
    bool finalized_ = false;
    /** @} */

    /** @name Histograms and timeline @{ */
    Histogram occupancy_;    //!< Queue depth at batch boundaries.
    Histogram horizon_;      //!< Sampled schedule horizons (ticks).
    std::uint32_t schedSeen_ = 0;
    struct TimelinePoint
    {
        Tick simNow;
        std::uint64_t events;
        double hostNs;
    };
    std::vector<TimelinePoint> timeline_;
    std::uint64_t flushes_ = 0;
    std::uint64_t timelineStride_ = 1;
    Tick lastNow_ = 0;
    /** @} */
};

} // namespace umany

#endif // UMANY_OBS_SIMPROF_HH
