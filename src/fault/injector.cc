#include "fault/injector.hh"

#include "arch/cluster_sim.hh"
#include "fault/fault_state.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace umany
{

namespace
{

/** Static-literal trace name for @p kind (records keep pointers). */
const char *
traceName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LinkDown:
        return "fault.link_down";
      case FaultKind::LinkUp:
        return "fault.link_up";
      case FaultKind::NodeDown:
        return "fault.node_down";
      case FaultKind::VillageDown:
        return "fault.village_down";
      case FaultKind::VillageUp:
        return "fault.village_up";
      case FaultKind::PackageDown:
        return "fault.package_down";
      case FaultKind::PackageUp:
        return "fault.package_up";
    }
    return "fault.?";
}

void
applyToMachine(Machine &m, ServerId, const FaultEvent &e)
{
    switch (e.kind) {
      case FaultKind::LinkDown:
      case FaultKind::LinkUp:
        m.armFaults().setLinkUp(e.target,
                                e.kind == FaultKind::LinkUp);
        break;
      case FaultKind::NodeDown: {
        FaultState &fs = m.armFaults();
        for (const LinkId l :
             linksTouchingNode(m.topology(), e.target)) {
            fs.setLinkUp(l, false);
        }
        break;
      }
      case FaultKind::VillageDown:
        m.setVillageUp(e.target, false);
        break;
      case FaultKind::VillageUp:
        m.setVillageUp(e.target, true);
        break;
      case FaultKind::PackageDown:
      case FaultKind::PackageUp:
        fatal("package faults target a RackSim, not a ClusterSim");
    }
    UMANY_TRACE(TraceSink::active()->instant(
        e.at, m.tracePid(), traceIcnTrack, traceName(e.kind),
        e.target));
}

/** Whether @p kind needs a FaultState (vs ServiceMap liveness). */
bool
needsFaultState(FaultKind kind)
{
    return kind != FaultKind::VillageDown &&
           kind != FaultKind::VillageUp;
}

} // namespace

void
FaultInjector::applyNow(ClusterSim &sim, const FaultEvent &e)
{
    if (e.server != invalidId) {
        if (e.server >= sim.numServers()) {
            fatal("fault event targets server %u of %u", e.server,
                  sim.numServers());
        }
        applyToMachine(sim.machine(e.server), e.server, e);
        return;
    }
    for (ServerId s = 0; s < sim.numServers(); ++s)
        applyToMachine(sim.machine(s), s, e);
}

void
FaultInjector::arm(EventQueue &eq, ClusterSim &sim,
                   const FaultPlan &plan)
{
    // Attach fault state before traffic flows: arming is free until
    // an event fires, and doing it up front keeps the run's RNG
    // stream layout independent of when the first fault lands.
    for (const FaultEvent &e : plan.events) {
        if (!needsFaultState(e.kind))
            continue;
        if (e.server != invalidId) {
            if (e.server >= sim.numServers()) {
                fatal("fault event targets server %u of %u",
                      e.server, sim.numServers());
            }
            sim.machine(e.server).armFaults();
        } else {
            for (ServerId s = 0; s < sim.numServers(); ++s)
                sim.machine(s).armFaults();
        }
    }
    for (const FaultEvent &e : plan.events) {
        eq.schedule(e.at, EvTag{EvSrc::Fault},
                    [&sim, e]() { applyNow(sim, e); });
    }
}

} // namespace umany
