#include "stats/stats_dump.hh"

#include <algorithm>

#include "arch/cluster_sim.hh"
#include "fault/fault_state.hh"
#include "obs/json.hh"
#include "sim/logging.hh"

namespace umany
{

void
StatsDump::add(std::string name, double value, std::string desc)
{
    entries_.push_back(
        StatEntry{std::move(name), value, std::move(desc)});
}

double
StatsDump::value(const std::string &name) const
{
    for (const StatEntry &e : entries_) {
        if (e.name == name)
            return e.value;
    }
    fatal("no statistic named '%s'", name.c_str());
}

bool
StatsDump::has(const std::string &name) const
{
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const StatEntry &e) {
                           return e.name == name;
                       });
}

std::string
StatsDump::format() const
{
    std::size_t width = 0;
    for (const StatEntry &e : entries_)
        width = std::max(width, e.name.size());
    std::string out;
    for (const StatEntry &e : entries_) {
        out += strprintf("%-*s  %14.6g  # %s\n",
                         static_cast<int>(width), e.name.c_str(),
                         e.value, e.desc.c_str());
    }
    return out;
}

std::string
StatsDump::formatJson() const
{
    // Sorted by name so the artifact is diff-stable: two dumps of
    // the same run compare byte-for-byte even if collection order
    // changes (golden-figure and replay checks rely on this).
    std::vector<StatEntry> sorted = entries_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const StatEntry &a, const StatEntry &b) {
                         return a.name < b.name;
                     });
    JsonWriter w;
    w.beginObject();
    w.key("stats").beginArray();
    for (const StatEntry &e : sorted) {
        w.beginObject();
        w.key("name").value(e.name);
        w.key("value").value(e.value);
        w.key("desc").value(e.desc);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

StatsDump
collectStats(ClusterSim &sim)
{
    StatsDump d;

    d.add("sim.events",
          static_cast<double>(sim.eventq().dispatched()),
          "kernel events dispatched over the whole run");
    d.add("cluster.roots.completed",
          static_cast<double>(sim.completedRoots()),
          "root requests completed during recording");
    d.add("cluster.roots.rejected",
          static_cast<double>(sim.rejectedRoots()),
          "root requests rejected by admission control");
    d.add("cluster.roots.qos_violations",
          static_cast<double>(sim.qosViolations()),
          "roots exceeding the QoS threshold");
    d.add("cluster.latency.avg_ms",
          toMs(static_cast<Tick>(sim.allLatency().mean())),
          "mean end-to-end latency");
    d.add("cluster.latency.p50_ms", toMs(sim.allLatency().p50()),
          "median end-to-end latency");
    d.add("cluster.latency.p99_ms", toMs(sim.allLatency().p99()),
          "tail (P99) end-to-end latency");
    d.add("cluster.requests.in_flight",
          static_cast<double>(sim.requestsInFlight()),
          "requests still alive (0 after a drained run)");
    d.add("cluster.time.queued_us", sim.queuedTimeUs().mean(),
          "mean per-request time waiting in queues");
    d.add("cluster.time.blocked_us", sim.blockedTimeUs().mean(),
          "mean per-request time blocked on calls");
    d.add("cluster.time.running_us", sim.runningTimeUs().mean(),
          "mean per-request on-core time");
    d.add("cluster.time.cpu_utilization",
          sim.requestCpuUtilization().mean(),
          "mean per-request CPU utilization (sec 3.3)");

    // Recovery statistics only exist when the client-side recovery
    // policy is on: adding them unconditionally would change every
    // healthy run's byte-compared golden artifact.
    if (sim.recoveryEnabled()) {
        d.add("cluster.recovery.retries",
              static_cast<double>(sim.retries()),
              "root attempts relaunched after timeout/reject");
        d.add("cluster.recovery.timeouts",
              static_cast<double>(sim.timeouts()),
              "root attempts that exceeded the client deadline");
        d.add("cluster.recovery.shed_roots",
              static_cast<double>(sim.shedRoots()),
              "roots abandoned after the retry budget ran out");
        d.add("cluster.recovery.stale_responses",
              static_cast<double>(sim.staleResponses()),
              "responses arriving after their attempt timed out");
    }

    // Dispatch-policy statistics exist only under a non-default
    // policy (same golden-stability rule as the recovery block):
    // --dispatch=rr keeps every pre-existing artifact byte-identical.
    bool policyActive = false;
    for (ServerId s = 0; s < sim.numServers(); ++s) {
        policyActive = policyActive ||
                       sim.machine(s).dispatchKind() !=
                           DispatchKind::RoundRobin;
    }
    if (policyActive) {
        std::uint64_t dispatches = 0;
        std::uint64_t direct = 0;
        std::uint64_t steals = 0;
        std::uint64_t stealProbes = 0;
        std::uint64_t nicProbes = 0;
        for (ServerId s = 0; s < sim.numServers(); ++s) {
            Machine &m = sim.machine(s);
            dispatches += m.schedDispatches();
            direct += m.schedDirectDispatches();
            steals += m.schedSteals();
            stealProbes += m.schedStealProbes();
            nicProbes += m.schedNicProbes();
        }
        d.add("cluster.sched.dispatches",
              static_cast<double>(dispatches),
              "requests handed to a core (direct + stolen)");
        d.add("cluster.sched.direct_dispatches",
              static_cast<double>(direct),
              "requests dequeued from their home village RQ");
        d.add("cluster.sched.steals",
              static_cast<double>(steals),
              "requests stolen from a sibling village RQ");
        d.add("cluster.sched.steal_probes",
              static_cast<double>(stealProbes),
              "sibling RQ probes, successful or not");
        d.add("cluster.sched.nic_probes",
              static_cast<double>(nicProbes),
              "village depth probes issued by the NIC policy");
    }

    for (ServerId s = 0; s < sim.numServers(); ++s) {
        Machine &m = sim.machine(s);
        const std::string base = strprintf("server%u.", s);
        d.add(base + "cores.utilization", m.avgCoreUtilization(),
              "mean core busy fraction");
        d.add(base + "cores.context_switches",
              static_cast<double>(m.contextSwitches()),
              "context switches across all cores");
        d.add(base + "sched.dispatcher_util",
              m.dispatcherUtilization(),
              "software scheduler core utilization (0 for HW)");
        d.add(base + "sched.dispatcher_ops",
              static_cast<double>(m.dispatcherOps()),
              "operations through the software scheduler");
        d.add(base + "requests.completed",
              static_cast<double>(m.completedRequests()),
              "service requests finished on this machine");
        d.add(base + "requests.rejected",
              static_cast<double>(m.rejectedRequests()),
              "service requests rejected on this machine");

        // Per-machine dispatch-policy counters, gated like the
        // cluster.sched.* block.
        if (m.dispatchKind() != DispatchKind::RoundRobin) {
            d.add(base + "sched.steals",
                  static_cast<double>(m.schedSteals()),
                  "requests this machine's cores stole");
            d.add(base + "sched.steal_probes",
                  static_cast<double>(m.schedStealProbes()),
                  "sibling RQ probes paid for, hit or miss");
            d.add(base + "sched.nic_probes",
                  static_cast<double>(m.schedNicProbes()),
                  "NIC depth probes for po2c/jsqd dispatch");
        }

        const Network &net = m.network();
        d.add(base + "net.messages",
              static_cast<double>(net.messagesDelivered()),
              "ICN messages delivered");
        d.add(base + "net.latency_avg_ns",
              toNs(static_cast<Tick>(net.latencyHist().mean())),
              "mean ICN message latency");
        d.add(base + "net.link_util_mean",
              net.meanLinkUtilization(),
              "mean non-access link utilization");
        d.add(base + "net.link_util_max", net.maxLinkUtilization(),
              "hottest non-access link utilization");

        // Fault-mode statistics appear only on machines that were
        // armed for injection (same golden-stability rule as the
        // cluster.recovery.* block above).
        if (m.faultsArmed() || m.shedRequests() > 0) {
            d.add(base + "net.dead_links",
                  m.faultsArmed()
                      ? static_cast<double>(
                            m.faultState()->deadLinks())
                      : 0.0,
                  "links down at the end of the run");
            d.add(base + "net.reroutes",
                  static_cast<double>(net.reroutes()),
                  "mid-flight retransmits off dead links");
            d.add(base + "net.degraded",
                  static_cast<double>(net.degradedDeliveries()),
                  "messages delivered via loss recovery");
            d.add(base + "net.dropped",
                  static_cast<double>(net.messagesDropped()),
                  "droppable messages lost to partitions");
            d.add(base + "requests.shed_no_path",
                  static_cast<double>(m.shedRequests()),
                  "requests bounced at the NIC (no reachable "
                  "instance)");
        }

        d.add(base + "topnic.ingress_msgs",
              static_cast<double>(m.topNic().ingressMsgs()),
              "messages entering the package");
        d.add(base + "topnic.egress_msgs",
              static_cast<double>(m.topNic().egressMsgs()),
              "messages leaving the package");

        d.add(base + "storage.requests",
              static_cast<double>(
                  sim.server(s).storage().requests()),
              "storage-tier accesses");
        d.add(base + "storage.queueing_ms",
              toMs(sim.server(s).storage().totalQueueing()),
              "accumulated storage queueing time");
    }
    return d;
}

} // namespace umany
