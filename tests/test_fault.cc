/**
 * @file
 * Fault-injection and recovery tests: rerouting correctness under
 * dead links, partition detection, degraded delivery, retransmits,
 * plan determinism, village liveness, and the client-side
 * timeout/retry/backoff machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "arch/cluster_sim.hh"
#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "fault/fault_plan.hh"
#include "fault/fault_state.hh"
#include "fault/injector.hh"
#include "noc/fat_tree.hh"
#include "noc/leaf_spine.hh"
#include "noc/network.hh"
#include "sched/service_map.hh"
#include "workload/app_graph.hh"
#include "workload/synthetic.hh"

namespace umany
{
namespace
{

/** Count of fabric (non-access) links on @p path. */
std::size_t
fabricHops(const Topology &topo, const std::vector<LinkId> &path)
{
    std::size_t n = 0;
    for (const LinkId id : path) {
        if (!topo.links()[id].access)
            ++n;
    }
    return n;
}

TEST(FaultRouting, LeafSpineRoutesAroundDeadLinks)
{
    LeafSpine topo{LeafSpineParams{}};
    FaultState faults(topo);

    // Kill a growing set of random fabric links; every successful
    // route must avoid all of them and keep the <= 4 NH-hop bound,
    // and every failure must be a genuine partition.
    Rng pick(0xdeadull);
    std::vector<LinkId> fabric = fabricLinks(topo);
    Rng route_rng(7);
    std::vector<LinkId> path;
    for (int k = 0; k < 12; ++k) {
        const LinkId dead =
            fabric[static_cast<std::size_t>(pick.below(
                fabric.size()))];
        faults.setLinkUp(dead, false);
        for (EndpointId src = 0; src < 40; ++src) {
            for (EndpointId dst = 100; dst < 140; ++dst) {
                const bool ok = topo.route(src, dst, route_rng, path,
                                           &faults);
                if (!ok) {
                    EXPECT_TRUE(path.empty());
                    EXPECT_FALSE(
                        topo.hasLivePath(src, dst, &faults));
                    continue;
                }
                for (const LinkId id : path)
                    EXPECT_TRUE(faults.linkUp(id))
                        << "routed over dead link " << id;
                EXPECT_LE(fabricHops(topo, path), 4u);
            }
        }
    }
    EXPECT_GT(faults.deadLinks(), 0u);
}

TEST(FaultRouting, HealthyFaultStateIsDrawIdentical)
{
    // An armed-but-clean FaultState must not perturb ECMP draws:
    // routes (and the rng stream position) match the null-faults
    // path exactly.
    LeafSpine topo{LeafSpineParams{}};
    FaultState faults(topo);
    Rng a(99), b(99);
    std::vector<LinkId> pa, pb;
    for (EndpointId src = 0; src < 30; ++src) {
        for (EndpointId dst = 120; dst < 150; ++dst) {
            ASSERT_TRUE(topo.route(src, dst, a, pa));
            ASSERT_TRUE(topo.route(src, dst, b, pb, &faults));
            EXPECT_EQ(pa, pb);
        }
    }
    EXPECT_EQ(a.next(), b.next());
}

TEST(FaultRouting, FatTreeSinglePathPartitions)
{
    FatTree topo{FatTreeParams{}};
    FaultState faults(topo);
    Rng rng(1);
    std::vector<LinkId> path;
    // The unique leaf0 -> far-leaf path crosses the root; killing
    // any link on it partitions exactly the pairs that used it.
    const EndpointId src = 0;
    const EndpointId dst =
        static_cast<EndpointId>(31 * 5); // Leaf 31, slot 0.
    ASSERT_TRUE(topo.route(src, dst, rng, path, &faults));
    ASSERT_FALSE(path.empty());
    const LinkId dead = path[path.size() / 2];
    faults.setLinkUp(dead, false);
    EXPECT_FALSE(topo.route(src, dst, rng, path, &faults));
    EXPECT_TRUE(path.empty());
    EXPECT_FALSE(topo.hasLivePath(src, dst, &faults));
    // Same-leaf pairs that avoid the dead link still route.
    EXPECT_TRUE(topo.route(0, 1, rng, path, &faults));
}

TEST(FaultNetwork, PartitionDegradesLifecycleDelivery)
{
    // A lifecycle send (no drop handler) across a partition is late,
    // never lost: it arrives after the fixed loss-recovery penalty.
    EventQueue eq;
    FatTree topo{FatTreeParams{}};
    FaultState faults(topo);
    Network net("net", eq, topo, 1);
    net.setFaultState(&faults);

    Rng rng(1);
    std::vector<LinkId> path;
    ASSERT_TRUE(topo.route(0, 31 * 5, rng, path, &faults));
    for (const LinkId id : path)
        faults.setLinkUp(id, false);

    bool delivered = false;
    Message m;
    m.src = 0;
    m.dst = 31 * 5;
    m.bytes = 256;
    net.send(m, [&]() { delivered = true; });
    eq.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(net.degradedDeliveries(), 1u);
    EXPECT_GE(eq.now(), 25 * tickPerUs);
    EXPECT_EQ(net.messagesDropped(), 0u);
}

TEST(FaultNetwork, PartitionDropsDroppableTraffic)
{
    EventQueue eq;
    FatTree topo{FatTreeParams{}};
    FaultState faults(topo);
    Network net("net", eq, topo, 1);
    net.setFaultState(&faults);

    Rng rng(1);
    std::vector<LinkId> path;
    ASSERT_TRUE(topo.route(0, 31 * 5, rng, path, &faults));
    faults.setLinkUp(path[1], false);

    bool delivered = false;
    bool dropped = false;
    Message m;
    m.src = 0;
    m.dst = 31 * 5;
    m.bytes = 256;
    net.send(m, [&]() { delivered = true; },
             [&]() { dropped = true; });
    eq.run();
    EXPECT_FALSE(delivered);
    EXPECT_TRUE(dropped);
    EXPECT_EQ(net.messagesDropped(), 1u);
}

TEST(FaultNetwork, MidFlightLinkDeathRetransmits)
{
    // Kill a link while messages are crossing earlier hops: the
    // network retransmits from the source.
    {
        // Fat tree: the dead link is the destination's only attach
        // link, so the retransmit degrades, and the message still
        // arrives.
        EventQueue eq;
        FatTree topo{FatTreeParams{}};
        FaultState faults(topo);
        Network net("net", eq, topo, 1);
        net.setFaultState(&faults);

        Rng rng(1);
        std::vector<LinkId> path;
        ASSERT_TRUE(topo.route(0, 31 * 5, rng, path, &faults));
        const LinkId last = path.back();
        eq.schedule(1, [&]() { faults.setLinkUp(last, false); });

        bool delivered = false;
        Message m;
        m.src = 0;
        m.dst = 31 * 5;
        m.bytes = 256;
        net.send(m, [&]() { delivered = true; });
        eq.run();
        EXPECT_TRUE(delivered);
        EXPECT_GE(net.reroutes(), 1u);
        EXPECT_EQ(net.degradedDeliveries(), 1u);
    }
    {
        // Leaf-spine: kill, just after the send, every spine uplink
        // of the source pod but one. Each retransmit must route over
        // the survivor and deliver without degrading; one that
        // retried ECMP blind would hit a dead uplink 31 times in 32.
        EventQueue eq;
        LeafSpine topo{LeafSpineParams{}};
        FaultState faults(topo);
        Network net("net", eq, topo, 1);
        net.setFaultState(&faults);

        Rng rng(1);
        std::vector<LinkId> path;
        ASSERT_TRUE(topo.route(0, 31 * 5, rng, path, &faults));
        ASSERT_TRUE(topo.links()[path.front()].access);
        const NodeId leaf = topo.links()[path.front()].to;
        std::set<NodeId> spines;
        for (const LinkSpec &l : topo.links()) {
            if (l.level == 1 && l.from == leaf)
                spines.insert(l.to);
        }
        std::vector<LinkId> uplinks;
        for (LinkId id = 0; id < topo.links().size(); ++id) {
            const LinkSpec &l = topo.links()[id];
            if (l.level == 2 && spines.count(l.from) != 0)
                uplinks.push_back(id);
        }
        ASSERT_EQ(uplinks.size(), 32u);
        // uplinks[0] survives; the first message's uplink dies.
        ASSERT_EQ(std::find(path.begin(), path.end(), uplinks[0]),
                  path.end());
        eq.schedule(1, [&]() {
            for (std::size_t i = 1; i < uplinks.size(); ++i)
                faults.setLinkUp(uplinks[i], false);
        });

        int arrived = 0;
        for (int i = 0; i < 16; ++i) {
            Message m;
            m.src = 0;
            m.dst = 31 * 5;
            m.bytes = 256;
            net.send(m, [&]() { ++arrived; });
        }
        eq.run();
        EXPECT_EQ(arrived, 16);
        EXPECT_EQ(net.messagesDelivered(), 16u);
        EXPECT_GE(net.reroutes(), 1u);
        EXPECT_EQ(net.degradedDeliveries(), 0u);
    }
}

TEST(FaultPlanTest, BuildersAreSeedDeterministic)
{
    LeafSpine topo{LeafSpineParams{}};
    const FaultPlan a =
        randomLinkFailures(topo, 4, fromUs(10.0), 42);
    const FaultPlan b =
        randomLinkFailures(topo, 4, fromUs(10.0), 42);
    const FaultPlan c =
        randomLinkFailures(topo, 4, fromUs(10.0), 43);
    ASSERT_EQ(a.events.size(), 4u);
    std::set<std::uint32_t> targets;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].target, b.events[i].target);
        EXPECT_EQ(a.events[i].kind, FaultKind::LinkDown);
        EXPECT_FALSE(topo.links()[a.events[i].target].access);
        targets.insert(a.events[i].target);
    }
    EXPECT_EQ(targets.size(), 4u) << "targets must be distinct";
    bool differs = false;
    for (std::size_t i = 0; i < c.events.size(); ++i)
        differs = differs || c.events[i].target != a.events[i].target;
    EXPECT_TRUE(differs) << "different seeds -> different plans";
}

TEST(ServiceMapLiveness, PickLiveSkipsDeadVillages)
{
    ServiceMap map;
    map.addInstance(0, 3);
    map.addInstance(0, 5);
    map.addInstance(0, 9);
    EXPECT_TRUE(map.villageUp(5));
    map.setVillageUp(5, false);
    EXPECT_FALSE(map.villageUp(5));
    EXPECT_EQ(map.villagesDown(), 1u);
    for (int i = 0; i < 10; ++i)
        EXPECT_NE(map.pickLive(0), 5u);
    map.setVillageUp(3, false);
    map.setVillageUp(9, false);
    EXPECT_EQ(map.pickLive(0), invalidId);
    map.setVillageUp(9, true);
    EXPECT_EQ(map.pickLive(0), 9u);
    // Idempotent transitions keep the down-count consistent.
    map.setVillageUp(3, false);
    map.setVillageUp(3, false);
    EXPECT_EQ(map.villagesDown(), 2u);
}

TEST(RecoveryPolicy, BackoffIsDeterministicAndCapped)
{
    RecoveryParams rp;
    EXPECT_EQ(rp.backoffDelay(1), fromUs(500.0));
    EXPECT_EQ(rp.backoffDelay(2), fromUs(1000.0));
    EXPECT_EQ(rp.backoffDelay(3), fromUs(2000.0));
    EXPECT_EQ(rp.backoffDelay(4), fromUs(4000.0));
    EXPECT_EQ(rp.backoffDelay(5), fromMs(8.0));
    EXPECT_EQ(rp.backoffDelay(12), fromMs(8.0));
    // Same inputs, same schedule: no hidden randomness.
    for (std::uint32_t a = 1; a < 8; ++a)
        EXPECT_EQ(rp.backoffDelay(a), rp.backoffDelay(a));
}

/** Small faulted evaluation run shared by the cluster-level tests. */
ExperimentConfig
faultedConfig(std::uint32_t dead_links)
{
    ExperimentConfig cfg;
    cfg.machine = uManycoreParams();
    cfg.cluster.numServers = 1;
    cfg.cluster.recovery.enabled = true;
    cfg.rpsPerServer = 2000.0;
    cfg.arrivals = ArrivalKind::Poisson;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(10.0);
    cfg.seed = 0x5eedull;
    if (dead_links > 0) {
        const std::unique_ptr<Topology> topo =
            makeTopology(cfg.machine);
        cfg.faults = randomLinkFailures(*topo, dead_links,
                                        cfg.warmup / 2, cfg.seed, 0);
    }
    return cfg;
}

TEST(FaultCluster, SameSeedFaultedRunsAreReproducible)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    const ExperimentConfig cfg = faultedConfig(3);
    StatsDump s1, s2;
    const RunMetrics m1 = runExperiment(catalog, cfg, &s1);
    const RunMetrics m2 = runExperiment(catalog, cfg, &s2);
    EXPECT_EQ(metricsJson(m1), metricsJson(m2));
    EXPECT_EQ(s1.formatJson(), s2.formatJson());
    EXPECT_GT(m1.completed, 0u);
}

TEST(FaultCluster, DeadVillagesRedispatchOrShed)
{
    // Take down villages mid-warmup on the one server; the cluster
    // must keep completing work (re-dispatch) while recording the
    // degradation, and still drain cleanly.
    const ServiceCatalog catalog = buildSocialNetwork();
    ExperimentConfig cfg = faultedConfig(0);
    for (std::uint32_t v = 0; v < 8; ++v) {
        cfg.faults.add({cfg.warmup / 2, FaultKind::VillageDown,
                        invalidId, v});
    }
    StatsDump stats;
    const RunMetrics m = runExperiment(catalog, cfg, &stats);
    EXPECT_GT(m.completed, 0u);
    // Village-down runs never arm link-fault state, so dead_links is
    // only present (and zero) if shedding forced the block out.
    if (stats.has("server0.net.dead_links")) {
        EXPECT_EQ(stats.value("server0.net.dead_links"), 0.0);
    }
    EXPECT_TRUE(stats.has("cluster.recovery.retries"));
}

TEST(FaultCluster, RecoveryRetriesRejectedRoots)
{
    // Kill every village hosting anything: every arrival is shed at
    // the NIC, the client burns its retry budget, and all roots end
    // rejected — but the lifecycle still conserves (clean drain
    // would abort under the invariant checker otherwise).
    const ServiceCatalog catalog = buildSocialNetwork();
    ExperimentConfig cfg = faultedConfig(0);
    const std::uint32_t villages =
        cfg.machine.numCores / cfg.machine.coresPerVillage;
    for (std::uint32_t v = 0; v < villages; ++v)
        cfg.faults.add({0, FaultKind::VillageDown, invalidId, v});
    StatsDump stats;
    const RunMetrics m = runExperiment(catalog, cfg, &stats);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_GT(m.rejected, 0u);
    EXPECT_GT(stats.value("cluster.recovery.retries"), 0.0);
    EXPECT_GT(stats.value("server0.requests.shed_no_path"), 0.0);
}

void
expectSameLatency(const LatencyStats &a, const LatencyStats &b)
{
    EXPECT_EQ(a.avgMs, b.avgMs);
    EXPECT_EQ(a.p50Ms, b.p50Ms);
    EXPECT_EQ(a.p99Ms, b.p99Ms);
    EXPECT_EQ(a.samples, b.samples);
}

TEST(FaultCluster, RecoveryWithoutTimeoutsMatchesRecoveryOff)
{
    // Without faults and with every attempt inside its deadline, the
    // recovery client must be invisible: each root resolves on its
    // first attempt, so a recovering run measures exactly what a
    // plain one does. Deterministic 200 us single-segment roots at
    // 2K RPS finish far inside the 5 ms deadline.
    SyntheticParams sp;
    sp.dist = SynthDist::Deterministic;
    sp.meanUs = 200.0;
    sp.minCalls = 0;
    sp.maxCalls = 0;
    const ServiceCatalog catalog = buildSynthetic(sp);
    ExperimentConfig plain = faultedConfig(0);
    plain.cluster.recovery.enabled = false;
    const ExperimentConfig recovering = faultedConfig(0);
    StatsDump s_off, s_on;
    const RunMetrics off = runExperiment(catalog, plain, &s_off);
    const RunMetrics on = runExperiment(catalog, recovering, &s_on);

    EXPECT_EQ(s_on.value("cluster.recovery.timeouts"), 0.0);
    EXPECT_GT(off.completed, 0u);
    EXPECT_EQ(on.completed, off.completed);
    EXPECT_EQ(on.rejected, off.rejected);
    EXPECT_EQ(on.observed, off.observed);
    EXPECT_EQ(on.icnMessages, off.icnMessages);
    expectSameLatency(on.overall, off.overall);
    ASSERT_EQ(on.perEndpoint.size(), off.perEndpoint.size());
    for (const auto &[name, stats] : off.perEndpoint)
        expectSameLatency(on.perEndpoint.at(name), stats);
    // The core and link utilizations are left out: they average
    // busy time up to the run's last event, and a recovering
    // client's deadlines, which no-op once their attempt resolved,
    // run up to 5 ms past the last response.

    for (const StatEntry &e : s_off.entries()) {
        EXPECT_EQ(e.name.find("cluster.recovery."), std::string::npos)
            << e.name;
        EXPECT_EQ(e.name.find("net.dead_links"), std::string::npos)
            << e.name;
    }
}

} // namespace
} // namespace umany
