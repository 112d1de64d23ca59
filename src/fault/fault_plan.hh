/**
 * @file
 * FaultPlan: a deterministic schedule of fault events applied to the
 * cluster at fixed ticks — link down/up, NH (switch) down, and
 * village down/up (plus package down/up for rack plans).
 *
 * Plans are data, not behavior: they can be built programmatically
 * or generated from a seeded RNG stream (the builders below). The
 * FaultInjector (fault/injector.hh)
 * turns a plan into scheduled events against a ClusterSim.
 */

#ifndef UMANY_FAULT_FAULT_PLAN_HH
#define UMANY_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace umany
{

class Topology;

/** What one FaultEvent does when it fires. */
enum class FaultKind : std::uint8_t
{
    LinkDown,    //!< target = LinkId
    LinkUp,      //!< target = LinkId
    NodeDown,    //!< target = NH NodeId; kills every incident link
    VillageDown, //!< target = VillageId; dispatch avoids it
    VillageUp,   //!< target = VillageId
    PackageDown, //!< target = rack package id (rack plans only)
    PackageUp,   //!< target = rack package id (rack plans only)
};

/** One scheduled fault. */
struct FaultEvent
{
    Tick at = 0;
    FaultKind kind = FaultKind::LinkDown;
    /** Server whose package is affected; invalidId = every server. */
    ServerId server = invalidId;
    /** Link / node / village id (kind-dependent; see FaultKind). */
    std::uint32_t target = 0;
};

/** An ordered (by injector, not by construction) set of events. */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    FaultPlan &
    add(const FaultEvent &e)
    {
        events.push_back(e);
        return *this;
    }
};

/**
 * @name Seeded plan builders
 * Each draws from its own Rng stream (rngstream::fault salted with
 * @p seed) so the same seed always fails the same components,
 * independent of every other stream in the run.
 * @{
 */

/** Fail @p count distinct fabric links of @p topo at @p at. */
FaultPlan randomLinkFailures(const Topology &topo,
                             std::uint32_t count, Tick at,
                             std::uint64_t seed,
                             ServerId server = invalidId);

/** Fail @p count distinct NH nodes of @p topo at @p at. */
FaultPlan randomNodeFailures(const Topology &topo,
                             std::uint32_t count, Tick at,
                             std::uint64_t seed,
                             ServerId server = invalidId);

/** Fail @p count distinct villages (of @p numVillages) at @p at. */
FaultPlan randomVillageFailures(std::uint32_t numVillages,
                                std::uint32_t count, Tick at,
                                std::uint64_t seed,
                                ServerId server = invalidId);

/** Fail @p count distinct packages (of @p numPackages) at @p at
 *  (rack plans only; see rack/rack_sim.hh). */
FaultPlan randomPackageFailures(std::uint32_t numPackages,
                                std::uint32_t count, Tick at,
                                std::uint64_t seed);
/** @} */

} // namespace umany

#endif // UMANY_FAULT_FAULT_PLAN_HH
