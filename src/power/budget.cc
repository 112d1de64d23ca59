#include "power/budget.hh"

#include <algorithm>
#include <cmath>

#include "power/cacti_lite.hh"
#include "power/mcpat_lite.hh"

namespace umany
{

namespace
{

constexpr std::uint32_t manycoreCores = 1024;
constexpr std::uint32_t numPools = 32;
constexpr double poolMb = 8.0;
/** Hubs, NICs, and integration overhead as a fraction of core area
 *  and power. */
constexpr double uncoreFraction = 0.04;

} // namespace

PackageBudget
uManycoreBudget(int node_nm)
{
    const CoreEstimate core = coreWithCachesManycore(node_nm);

    PackageBudget b;
    b.cores = manycoreCores;
    b.perCoreW = core.powerW;
    b.perCoreAreaMm2 = core.areaMm2;
    b.totalW = core.powerW * manycoreCores;
    b.totalAreaMm2 = core.areaMm2 * manycoreCores;

    SramParams sp;
    sp.bytes = static_cast<std::uint64_t>(poolMb * 1024 * 1024);
    sp.assoc = 1;
    sp.nodeNm = node_nm;
    const SramEstimate pool = cactiLite(sp);
    b.totalAreaMm2 += pool.areaMm2 * numPools;
    b.totalW += pool.leakageW * numPools;

    b.totalW *= 1.0 + uncoreFraction;
    b.totalAreaMm2 *= 1.0 + uncoreFraction;
    return b;
}

PackageBudget
serverClassBudget(std::uint32_t cores, int node_nm)
{
    const CoreEstimate core = coreWithCachesServerClass(node_nm);
    PackageBudget b;
    b.cores = cores;
    b.perCoreW = core.powerW;
    b.perCoreAreaMm2 = core.areaMm2;
    b.totalW = core.powerW * cores * (1.0 + uncoreFraction);
    b.totalAreaMm2 =
        core.areaMm2 * cores * (1.0 + uncoreFraction);
    return b;
}

std::uint32_t
isoPowerServerClassCores(int node_nm)
{
    const PackageBudget um = uManycoreBudget(node_nm);
    const PackageBudget sc = serverClassBudget(1, node_nm);
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::lround(um.totalW / sc.totalW)));
}

std::uint32_t
isoAreaServerClassCores(int node_nm)
{
    const PackageBudget um = uManycoreBudget(node_nm);
    const PackageBudget sc = serverClassBudget(1, node_nm);
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::lround(um.totalAreaMm2 / sc.totalAreaMm2)));
}

} // namespace umany
