#include "driver/qos.hh"

#include <cmath>

namespace umany
{

QosResult
findMaxQosThroughput(const ServiceCatalog &catalog,
                     const ExperimentConfig &base,
                     const QosSearchConfig &qcfg)
{
    QosResult result;
    for (const auto &[ep, avg] : contentionFreeAverages(catalog, base)) {
        result.thresholds[ep] = static_cast<Tick>(
            qcfg.qosMultiplier * static_cast<double>(avg));
    }

    auto probeAt = [&](double rps) {
        ExperimentConfig cfg = base;
        cfg.rpsPerServer = rps;
        cfg.qosThresholds = result.thresholds;
        return cfg;
    };

    // Binary search over offered load (log domain).
    double lo = qcfg.loRps;
    double hi = qcfg.hiRps;
    // If even the lower bound violates, report it directly, so that
    // probe runs in full: its rate is the reported one.
    double lo_rate =
        runExperiment(catalog, probeAt(lo)).qosViolationRate();
    if (lo_rate > qcfg.maxViolationRate) {
        result.maxRpsPerServer = lo;
        result.violationRateAtMax = lo_rate;
        return result;
    }
    double best = lo;
    double best_rate = lo_rate;
    for (std::uint32_t i = 0; i < qcfg.iterations; ++i) {
        const double mid =
            std::exp(0.5 * (std::log(lo) + std::log(hi)));
        // Only the verdict matters, so the probe stops as soon as
        // it is certain to fail.
        const double rate =
            runQosProbe(catalog, probeAt(mid), qcfg.maxViolationRate)
                .qosViolationRate();
        if (rate <= qcfg.maxViolationRate) {
            best = mid;
            best_rate = rate;
            lo = mid;
        } else {
            hi = mid;
        }
    }
    result.maxRpsPerServer = best;
    result.violationRateAtMax = best_rate;
    return result;
}

} // namespace umany
