#include "driver/metrics.hh"

namespace umany
{

double
RunMetrics::qosViolationRate() const
{
    if (observed == 0)
        return 0.0;
    return static_cast<double>(qosViolations + rejected) /
           static_cast<double>(observed);
}

double
RunMetrics::rejectionRate() const
{
    if (observed == 0)
        return 0.0;
    return static_cast<double>(rejected) /
           static_cast<double>(observed);
}

LatencyStats
latencyStatsFrom(const Histogram &h)
{
    LatencyStats s;
    s.samples = h.count();
    s.avgMs = toMs(static_cast<Tick>(h.mean()));
    s.p50Ms = toMs(h.p50());
    s.p99Ms = toMs(h.p99());
    return s;
}

} // namespace umany
