#include "workload/alibaba.hh"

#include <algorithm>
#include <cmath>

namespace umany
{

AlibabaModel::AlibabaModel(std::uint64_t seed, const AlibabaParams &p)
    : p_(p), rng_(seed)
{
}

double
AlibabaModel::sampleCpuUtil()
{
    // Lognormal parameterized by its median; truncate to [0, 1].
    const double mu = std::log(p_.utilMedian);
    const double u = rng_.lognormal(mu, p_.utilSigma);
    return std::min(u, 1.0);
}

std::uint32_t
AlibabaModel::sampleRpcCount()
{
    const double mu = std::log(p_.rpcMedian);
    const double v = rng_.lognormal(mu, p_.rpcSigma);
    return static_cast<std::uint32_t>(std::lround(v));
}

Mmpp
AlibabaModel::makeArrivalProcess()
{
    return Mmpp(p_.arrivalStates, rng_.next());
}

std::vector<std::uint32_t>
AlibabaModel::perSecondRates(std::uint32_t seconds)
{
    Mmpp proc = makeArrivalProcess();
    std::vector<std::uint32_t> counts(seconds, 0);
    double t = proc.nextInterarrival();
    while (t < static_cast<double>(seconds)) {
        counts[static_cast<std::size_t>(t)] += 1;
        t += proc.nextInterarrival();
    }
    return counts;
}

} // namespace umany
