/**
 * @file
 * Run metrics: what one simulation produces for the evaluation
 * figures — per-endpoint and overall average/P99 latency,
 * throughput, rejection and QoS-violation rates, utilizations.
 */

#ifndef UMANY_DRIVER_METRICS_HH
#define UMANY_DRIVER_METRICS_HH

#include <map>
#include <string>

#include "sim/types.hh"
#include "stats/histogram.hh"

namespace umany
{

/** Latency summary of one endpoint (or the aggregate). */
struct LatencyStats
{
    double avgMs = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::uint64_t samples = 0;
};

/** Everything one run yields. */
struct RunMetrics
{
    std::map<std::string, LatencyStats> perEndpoint;
    LatencyStats overall;
    double throughputRps = 0.0;     //!< Completed roots per second.
    double offeredRps = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t qosViolations = 0;
    std::uint64_t observed = 0;
    double avgCoreUtilization = 0.0;
    double dispatcherUtilization = 0.0;
    double meanLinkUtilization = 0.0;
    double maxLinkUtilization = 0.0;
    std::uint64_t icnMessages = 0;

    /** Violation fraction among observed roots. */
    double qosViolationRate() const;
    /** Rejected fraction among observed roots. */
    double rejectionRate() const;
};

/** Extract latency stats from a histogram of tick samples. */
LatencyStats latencyStatsFrom(const Histogram &h);

} // namespace umany

#endif // UMANY_DRIVER_METRICS_HH
