/**
 * @file
 * Package-level power/area accounting and the iso-power / iso-area
 * sizing of the ServerClass baseline (§5, §6.8): the 40-core
 * ServerClass matches μManycore's power; the 128-core one matches
 * its area (at 3.2x the power).
 */

#ifndef UMANY_POWER_BUDGET_HH
#define UMANY_POWER_BUDGET_HH

#include <cstdint>

namespace umany
{

/** Package-level estimate. */
struct PackageBudget
{
    double totalW = 0.0;
    double totalAreaMm2 = 0.0;
    double perCoreW = 0.0;      //!< Core + cache slice.
    double perCoreAreaMm2 = 0.0;
    std::uint32_t cores = 0;
};

/** μManycore package: 1024 cores + 32 pools + hubs/NICs. */
PackageBudget uManycoreBudget(int node_nm = 10);

/** ServerClass package with the given core count. */
PackageBudget serverClassBudget(std::uint32_t cores,
                                int node_nm = 10);

/** Core count matching μManycore's package power (expect ≈40). */
std::uint32_t isoPowerServerClassCores(int node_nm = 10);

/** Core count matching μManycore's package area (expect ≈128). */
std::uint32_t isoAreaServerClassCores(int node_nm = 10);

} // namespace umany

#endif // UMANY_POWER_BUDGET_HH
