/**
 * @file
 * Rack-scale periodic sampler: the rack-run counterpart of
 * obs/sampler.hh. Where the single-package Sampler walks one
 * cluster's servers, this walks every package and the rack
 * substrate, recording the series a rack operator actually watches:
 * per-package in-flight as seen by the LB (the po2c/jsqd occupancy
 * signal), per-package queue depth and core utilization, rack-wide
 * requests in flight, and fabric link utilization. Samples are
 * mirrored as Chrome counter events (per-package counters on the
 * package's first pid, rack-level counters on the rack pid) so the
 * series line up under the request spans in Perfetto.
 */

#ifndef UMANY_RACK_RACK_SAMPLER_HH
#define UMANY_RACK_RACK_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace umany
{

class EventQueue;
class RackSim;

/** The periodic sampler attached to one rack simulation. */
class RackSampler
{
  public:
    /** One package's state at one sample point. */
    struct PackageSample
    {
        double lbInflight = 0.0;      //!< LB's in-flight count.
        double queueDepth = 0.0;      //!< Sum over servers/villages.
        double maxVillageDepth = 0.0; //!< Hottest village anywhere.
        double coreUtil = 0.0;        //!< Mean busy fraction [0,1].
    };

    /** One sample point across the rack. */
    struct Sample
    {
        Tick ts = 0;
        std::uint64_t inFlight = 0;  //!< Rack-wide requests.
        double fabricLinkUtil = 0.0; //!< Mean port busy [0,1].
        std::vector<PackageSample> packages;
    };

    RackSampler(EventQueue &eq, RackSim &sim, Tick interval);

    /** Start sampling until @p until (final sample clamped to land
     *  exactly there, as in Sampler::start). */
    void start(Tick until);

    Tick interval() const { return interval_; }
    const std::vector<Sample> &samples() const { return samples_; }

    /** Render the series as a JSON object (schema in
     *  EXPERIMENTS.md "Rack observability"). */
    std::string toJson() const;

  private:
    EventQueue &eq_;
    RackSim &sim_;
    Tick interval_;
    Tick until_ = 0;
    Tick lastTs_ = 0;
    std::uint64_t lastBusy_ = 0;
    std::vector<Sample> samples_;

    void tick();
    void scheduleNext();
};

} // namespace umany

#endif // UMANY_RACK_RACK_SAMPLER_HH
