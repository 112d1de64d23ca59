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

    auto violationRate = [&](double rps) {
        ExperimentConfig cfg = base;
        cfg.rpsPerServer = rps;
        cfg.qosThresholds = result.thresholds;
        const RunMetrics m = runExperiment(catalog, cfg);
        return m.qosViolationRate();
    };

    // Binary search over offered load (log domain).
    double lo = qcfg.loRps;
    double hi = qcfg.hiRps;
    // If even the lower bound violates, report it directly.
    double lo_rate = violationRate(lo);
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
        const double rate = violationRate(mid);
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
