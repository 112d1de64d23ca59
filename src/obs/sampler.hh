/**
 * @file
 * Periodic run sampler: records time series of per-server queue
 * depth, core utilization, link utilization, and cluster-wide
 * in-flight requests at a configurable tick interval. Samples are
 * kept as an in-memory series (exported to JSON for regression
 * tracking) and mirrored as Chrome counter events into the active
 * TraceSink so queue build-up is visible under the request spans.
 */

#ifndef UMANY_OBS_SAMPLER_HH
#define UMANY_OBS_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace umany
{

class ClusterSim;
class EventQueue;

/** The periodic sampler attached to one cluster simulation. */
class Sampler
{
  public:
    /** One server's state at one sample point. */
    struct ServerSample
    {
        double queueDepth = 0.0;      //!< Sum over villages.
        double maxVillageDepth = 0.0; //!< Hottest village.
        double coreUtil = 0.0;        //!< Mean busy fraction [0,1].
        double linkUtil = 0.0;        //!< Mean ICN link util [0,1].
    };

    /** One sample point across the cluster. */
    struct Sample
    {
        Tick ts = 0;
        std::uint64_t inFlight = 0;
        std::vector<ServerSample> servers;
    };

    /**
     * @param interval Sampling period in ticks (> 0).
     */
    Sampler(EventQueue &eq, ClusterSim &sim, Tick interval);

    /**
     * Start sampling: one sample every interval until @p until, with
     * one final sample exactly AT @p until even when the window is
     * not a multiple of the interval — the series always covers the
     * full measurement window. Bounding the schedule keeps the event
     * queue drainable once the load stops (an unbounded
     * self-rescheduling sampler would make every run hit the drain
     * limit).
     */
    void start(Tick until);

    Tick interval() const { return interval_; }
    const std::vector<Sample> &samples() const { return samples_; }

    /** Render the series as a JSON object (schema in EXPERIMENTS.md). */
    std::string toJson() const;

  private:
    EventQueue &eq_;
    ClusterSim &sim_;
    Tick interval_;
    Tick until_ = 0;
    std::vector<Sample> samples_;

    void tick();
    void scheduleNext();
};

} // namespace umany

#endif // UMANY_OBS_SAMPLER_HH
