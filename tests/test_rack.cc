/**
 * @file
 * Rack-scale tests: the inter-package network's latency math, the
 * deterministic placement map, runExperiment() as the one-package
 * rack, same-seed replay determinism, and package failover behavior
 * under the fault layer.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "arch/presets.hh"
#include "driver/report.hh"
#include "fault/fault_plan.hh"
#include "rack/rack_experiment.hh"
#include "workload/app_graph.hh"

namespace umany
{
namespace
{

/** Small, fast shared run shape. */
ExperimentConfig
smallBase()
{
    ExperimentConfig cfg;
    cfg.machine = uManycoreParams();
    cfg.cluster.numServers = 1;
    cfg.rpsPerServer = 4000.0;
    cfg.arrivals = ArrivalKind::Bursty;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(10.0);
    cfg.seed = 0x5eedull;
    return cfg;
}

TEST(RackNet, UncontendedLatencyIsTheCalibratedPath)
{
    RackNet net(RackNetParams::forKind(RackNetKind::Rdma, 2));
    // 512 B at 100 GB/s serializes in 5.12 ns at each end; the path
    // is perEnd + ser + oneWay + ser + perEnd.
    const Tick ser = fromNs(512.0 / 100.0);
    const Tick want = 500 * tickPerNs + ser + 1500 * tickPerNs +
                      ser + 500 * tickPerNs;
    EXPECT_EQ(net.send(net.lbNode(), 0, 512, 0), want);
    EXPECT_EQ(net.messages(), 1u);
    EXPECT_EQ(net.bytes(), 512u);
}

TEST(RackNet, EgressOccupancyQueuesBackToBackSends)
{
    RackNet net(RackNetParams::forKind(RackNetKind::Rdma, 2));
    const Tick first = net.send(net.lbNode(), 0, 1 << 20, 0);
    // Same source, same instant: the second message waits for the
    // first to finish serializing, so it lands strictly later.
    const Tick second = net.send(net.lbNode(), 1, 1 << 20, 0);
    EXPECT_GT(second, first);
}

TEST(RackNet, NanoPuBeatsRdma)
{
    RackNet rdma(RackNetParams::forKind(RackNetKind::Rdma, 2));
    RackNet nano(RackNetParams::forKind(RackNetKind::NanoPu, 2));
    EXPECT_LT(nano.send(0, 1, 512, 0), rdma.send(0, 1, 512, 0));
}

TEST(RackPlacement, DeterministicAndBalanced)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    const RackPlacement a(catalog, 4, 2);
    const RackPlacement b(catalog, 4, 2);
    std::vector<std::uint32_t> perPackage(4, 0);
    for (const ServiceId ep : catalog.endpoints()) {
        EXPECT_EQ(a.packagesFor(ep), b.packagesFor(ep));
        EXPECT_EQ(a.packagesFor(ep).size(), 2u);
        for (const std::uint32_t p : a.packagesFor(ep))
            ++perPackage[p];
    }
    // (k + j) mod N placement: replica counts differ by at most one
    // across packages.
    const auto [lo, hi] = std::minmax_element(perPackage.begin(),
                                              perPackage.end());
    EXPECT_LE(*hi - *lo, 1u);
}

TEST(RackPlacement, ZeroReplicasMeansFullReplication)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    const RackPlacement p(catalog, 3, 0);
    EXPECT_EQ(p.replicas(), 3u);
    for (const ServiceId ep : catalog.endpoints())
        EXPECT_EQ(p.packagesFor(ep).size(), 3u);
}

TEST(Rack, OnePackageIsByteIdenticalToClusterRunner)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    const ExperimentConfig base = smallBase();

    StatsDump clusterStats;
    const RunMetrics clusterM =
        runExperiment(catalog, base, &clusterStats);

    RackExperimentConfig rcfg;
    rcfg.base = base;
    rcfg.rack.packages = 1;
    StatsDump rackStats;
    const RunMetrics rackM =
        runRackExperiment(catalog, rcfg, &rackStats);

    // runExperiment() is the rack of one, where the rack layer is
    // inert: same bytes in both the metrics report and the full
    // stats dump. (RackSimParams defaults to two packages, so a
    // wrapper that forgot packages = 1 would differ.)
    EXPECT_EQ(metricsJson(clusterM), metricsJson(rackM));
    EXPECT_EQ(clusterStats.formatJson(), rackStats.formatJson());
}

TEST(Rack, OnePackageRunAppliesPackageFaults)
{
    // A package fault in a runExperiment() config fails the one
    // package's villages, as it would in a rack.
    const ServiceCatalog catalog = buildSocialNetwork();
    ExperimentConfig cfg = smallBase();
    cfg.cluster.recovery.enabled = true;
    FaultEvent down;
    down.at = cfg.warmup + cfg.measure / 2;
    down.kind = FaultKind::PackageDown;
    down.target = 0;
    cfg.faults.add(down);

    const RunMetrics m = runExperiment(catalog, cfg);
    EXPECT_GT(m.completed, 0u);
    EXPECT_GT(m.rejected, 0u);
    EXPECT_EQ(m.observed, m.completed + m.rejected);
}

TEST(Rack, SameSeedReplaysByteIdentically)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base = smallBase();
    cfg.rack.packages = 3;
    cfg.rack.replica.kind = DispatchKind::Po2c;

    StatsDump s1, s2;
    const RunMetrics m1 = runRackExperiment(catalog, cfg, &s1);
    const RunMetrics m2 = runRackExperiment(catalog, cfg, &s2);
    EXPECT_EQ(metricsJson(m1), metricsJson(m2));
    EXPECT_EQ(s1.formatJson(), s2.formatJson());
}

TEST(Rack, RackRunConservesRootsAndChargesHops)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base = smallBase();
    cfg.rack.packages = 2;

    StatsDump stats;
    AttribResult attrib;
    const RunMetrics m =
        runRackExperiment(catalog, cfg, &stats, &attrib);

    EXPECT_GT(m.completed, 0u);
    EXPECT_EQ(m.observed, m.completed + m.rejected);
    // Every completed root crossed the fabric twice; the hop shows
    // up both in the rack stats and in the attribution ledger, and
    // the ledger still sums to the client-observed latency.
    EXPECT_GT(stats.value("rack.hop.count"), 0.0);
    EXPECT_GT(stats.value("rack.net.messages"), 0.0);
    EXPECT_GT(attrib.perRequestMeanUs[static_cast<std::size_t>(
                  AttribComp::PkgHop)],
              0.0);
    EXPECT_EQ(attrib.ledgerMismatches, 0u);
}

TEST(Rack, PolicySelectsLessLoadedPackage)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base = smallBase();
    cfg.rack.packages = 2;
    cfg.rack.replica.kind = DispatchKind::Jsqd;

    StatsDump stats;
    (void)runRackExperiment(catalog, cfg, &stats);
    // jsqd probes every candidate: the LB issued probes and split
    // traffic across both packages.
    EXPECT_GT(stats.value("rack.lb.policyProbes"), 0.0);
    EXPECT_GT(stats.value("rack.lb.pkg0.dispatches"), 0.0);
    EXPECT_GT(stats.value("rack.lb.pkg1.dispatches"), 0.0);
}

TEST(Rack, FailoverRoutesAroundDeadPackage)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base = smallBase();
    cfg.base.cluster.recovery.enabled = true;
    cfg.rack.packages = 2;
    // Package 1 dies right at the end of warmup.
    FaultPlan plan;
    FaultEvent down;
    down.at = cfg.base.warmup;
    down.kind = FaultKind::PackageDown;
    down.target = 1;
    plan.add(down);
    cfg.base.faults = plan;

    cfg.rack.failover = true;
    StatsDump onStats;
    const RunMetrics withFailover =
        runRackExperiment(catalog, cfg, &onStats);

    cfg.rack.failover = false;
    const RunMetrics withoutFailover =
        runRackExperiment(catalog, cfg);

    // With failover the LB stops dispatching into the dead package
    // (only pre-failure roots land there) and goodput holds; without
    // it, half the measured load dies inside package 1.
    EXPECT_LT(withFailover.rejectionRate(), 0.02);
    EXPECT_GT(withoutFailover.rejectionRate(),
              withFailover.rejectionRate());
    EXPECT_GT(withFailover.completed, withoutFailover.completed);
    EXPECT_EQ(withFailover.observed,
              withFailover.completed + withFailover.rejected);
    EXPECT_EQ(withoutFailover.observed,
              withoutFailover.completed + withoutFailover.rejected);
}

TEST(Rack, AllReplicasDownShedsAtTheLoadBalancer)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base = smallBase();
    cfg.rack.packages = 2;
    cfg.rack.failover = true;
    cfg.base.faults = randomPackageFailures(2, 2, cfg.base.warmup,
                                            cfg.base.seed);

    StatsDump stats;
    const RunMetrics m = runRackExperiment(catalog, cfg, &stats);
    // Every package is down: the LB sheds at the front door, and
    // sheds count as observed rejections.
    EXPECT_GT(stats.value("rack.lb.shedRoots"), 0.0);
    EXPECT_EQ(m.observed, m.completed + m.rejected);
    EXPECT_GT(m.rejected, 0u);
}

TEST(Rack, HeterogeneousRackRunsPerPackageMachines)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base = smallBase();
    cfg.rack.packages = 2;
    cfg.machines = {uManycoreParams(), scaleOutParams()};

    StatsDump stats;
    const RunMetrics m = runRackExperiment(catalog, cfg, &stats);
    EXPECT_GT(m.completed, 0u);
    // Both packages' stats trees are present under their prefixes.
    EXPECT_TRUE(stats.has("pkg0.cluster.latency.p99_ms"));
    EXPECT_TRUE(stats.has("pkg1.cluster.latency.p99_ms"));
}

} // namespace
} // namespace umany
