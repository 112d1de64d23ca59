/**
 * @file
 * Open-loop load generator: Poisson (or bursty MMPP) arrivals of
 * endpoint requests, matching the evaluation methodology (§5).
 */

#ifndef UMANY_WORKLOAD_LOADGEN_HH
#define UMANY_WORKLOAD_LOADGEN_HH

#include <functional>
#include <optional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"
#include "workload/service.hh"

namespace umany
{

/** Arrival process family. */
enum class ArrivalKind : std::uint8_t
{
    Poisson, //!< Used by the evaluation (§5).
    Bursty,  //!< MMPP, used by the §3.2 characterization.
};

/** Load-generator configuration. */
struct LoadGenParams
{
    double rps = 5000.0;           //!< Mean arrival rate.
    ArrivalKind kind = ArrivalKind::Poisson;
    Tick start = 0;
    Tick stop = fromSec(1.0);      //!< No arrivals at/after this tick.
    std::uint64_t seed = 1;
    /** Burstiness shape for ArrivalKind::Bursty: per-state rate
     *  multipliers and mean stay times (seconds). */
    std::vector<std::pair<double, double>> burstStates = {
        {0.5, 0.050}, {1.0, 0.065}, {1.6, 0.020}, {2.5, 0.007},
    };
    /**
     * Independent interleaved arrival processes, each at rps/streams
     * from its own RNG (and, for Bursty, its own MMPP phase). One
     * stream (the default, byte-identical to the seed behavior)
     * models a single front-end whose bursts hit the whole fleet in
     * phase; `streams = packages` models per-package front-ends with
     * uncorrelated burst phases (rack scale). Total mean rate is
     * `rps` either way.
     */
    std::uint32_t streams = 1;
};

/**
 * Drives endpoint arrivals into a submit callback. Endpoints are
 * drawn from the catalog's endpoint list weighted by mixWeight.
 */
class LoadGenerator
{
  public:
    /** Callback invoked for each arrival. */
    using SubmitFn = std::function<void(ServiceId endpoint)>;

    LoadGenerator(EventQueue &eq, const ServiceCatalog &catalog,
                  const LoadGenParams &p, SubmitFn submit);

    /** Schedule the arrival stream (call once before running). */
    void start();

    /**
     * The arrivals the whole trace will make, counted by replaying
     * copies of every stream's arrival process under start()'s
     * stopping rule; the live streams are untouched. Call before
     * start(): afterwards each stream has drawn its first gap.
     */
    std::uint64_t countArrivals() const;

    std::uint64_t generated() const { return generated_; }

  private:
    /** One arrival process: Poisson gaps from its own RNG, or
     *  bursty ones from its own MMPP. */
    struct Stream
    {
        Rng rng;
        std::optional<Mmpp> mmpp;
        /** Tick of the arrival after @p from. */
        Tick next(Tick from, double mean_gap_sec);
    };

    EventQueue &eq_;
    const ServiceCatalog &catalog_;
    LoadGenParams p_;
    SubmitFn submit_;
    /** Independent streams: interarrival gaps vs endpoint picks, so
     *  extra draws in one never shift the other (golden stability).
     *  The endpoint mix is shared so the stream count never changes
     *  the mix draws. */
    std::vector<Stream> streams_;
    Rng pickRng_;
    std::vector<ServiceId> endpoints_;
    std::vector<double> cumWeight_;
    double totalWeight_ = 0.0;
    std::uint64_t generated_ = 0;

    /** Mean Poisson gap of one stream, in seconds. */
    double meanGapSec() const;
    void scheduleNext(std::uint32_t stream, Tick from);
    ServiceId pickEndpoint();
};

} // namespace umany

#endif // UMANY_WORKLOAD_LOADGEN_HH
