/**
 * @file
 * Rack-level fault arming: FaultInjector's RackSim overloads.
 * Implemented here (not in fault/injector.cc) so the fault module
 * never includes rack headers; the shared FaultInjector class just
 * forward-declares RackSim.
 */

#include "arch/cluster_sim.hh"
#include "fault/injector.hh"
#include "rack/rack_sim.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace umany
{

namespace
{

/** Hard package loss: mark it down at the LB and fail every village
 *  inside, so in-flight work sheds and (with recovery) package-side
 *  clients keep timing out until the package comes back. */
void
applyPackageEvent(RackSim &rack, const FaultEvent &e)
{
    const bool down = e.kind == FaultKind::PackageDown;
    if (e.target >= rack.numPackages()) {
        fatal("package fault targets package %u of %u", e.target,
              rack.numPackages());
    }
    rack.setPackageDown(e.target, down);
    ClusterSim &pkg = rack.package(e.target);
    for (ServerId s = 0; s < pkg.numServers(); ++s) {
        Machine &m = pkg.machine(s);
        for (VillageId v = 0; v < m.numVillages(); ++v)
            m.setVillageUp(v, !down);
    }
}

} // namespace

void
FaultInjector::applyNow(RackSim &rack, const FaultEvent &e)
{
    if (e.kind == FaultKind::PackageDown ||
        e.kind == FaultKind::PackageUp) {
        applyPackageEvent(rack, e);
        return;
    }
    // Every other kind forwards to each package; `server` still
    // selects the server within each package.
    for (std::uint32_t p = 0; p < rack.numPackages(); ++p)
        applyNow(rack.package(p), e);
}

void
FaultInjector::arm(EventQueue &eq, RackSim &rack,
                   const FaultPlan &plan)
{
    // Split the plan: package events are armed here, everything
    // else reuses the per-package ClusterSim arming (FaultState
    // attach + scheduling) unchanged.
    FaultPlan forwarded;
    FaultPlan packageEvents;
    for (const FaultEvent &e : plan.events) {
        if (e.kind == FaultKind::PackageDown ||
            e.kind == FaultKind::PackageUp)
            packageEvents.add(e);
        else
            forwarded.add(e);
    }
    if (!forwarded.empty()) {
        for (std::uint32_t p = 0; p < rack.numPackages(); ++p)
            arm(eq, rack.package(p), forwarded);
    }
    for (const FaultEvent &e : packageEvents.events) {
        eq.schedule(e.at, EvTag{EvSrc::Fault},
                    [&rack, e]() { applyNow(rack, e); });
    }
}

} // namespace umany
