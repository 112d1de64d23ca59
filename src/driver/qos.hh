/**
 * @file
 * QoS-bounded throughput search (§6.5, Fig 18): the largest offered
 * load a machine sustains while at most a small fraction of
 * requests exceed 5x the contention-free average execution time.
 */

#ifndef UMANY_DRIVER_QOS_HH
#define UMANY_DRIVER_QOS_HH

#include "driver/experiment.hh"

namespace umany
{

/** QoS search configuration. */
struct QosSearchConfig
{
    double qosMultiplier = 5.0;     //!< Threshold = 5x base avg.
    double maxViolationRate = 0.01; //!< <=1% of requests may violate.
    double loRps = 1000.0;          //!< Per-server search bounds.
    double hiRps = 400000.0;
    std::uint32_t iterations = 9;   //!< Binary-search steps.
};

/** Result of a QoS throughput search. */
struct QosResult
{
    double maxRpsPerServer = 0.0;
    double violationRateAtMax = 0.0;
    std::map<ServiceId, Tick> thresholds;
};

/**
 * Find the maximum per-server RPS satisfying QoS for this machine.
 * Uses contentionFreeAverages() for the thresholds, then binary
 * search over offered load.
 */
QosResult findMaxQosThroughput(const ServiceCatalog &catalog,
                               const ExperimentConfig &base,
                               const QosSearchConfig &qcfg = {});

} // namespace umany

#endif // UMANY_DRIVER_QOS_HH
