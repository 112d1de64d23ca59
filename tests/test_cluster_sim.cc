/**
 * @file
 * End-to-end integration tests for the cluster simulation: request
 * completion across servers, placement invariants, recording and
 * QoS accounting, and request-lifetime hygiene (no leaks).
 */

#include <gtest/gtest.h>

#include "arch/cluster_sim.hh"
#include "arch/presets.hh"
#include "workload/app_graph.hh"
#include "workload/loadgen.hh"
#include "workload/synthetic.hh"

namespace umany
{
namespace
{

ClusterSimParams
smallCluster(std::uint32_t servers = 2)
{
    ClusterSimParams p;
    p.numServers = servers;
    p.seed = 99;
    return p;
}

TEST(ClusterSim, EveryServiceOnEveryServer)
{
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSim sim(eq, cat, uManycoreParams(), smallCluster(3));
    for (ServerId s = 0; s < 3; ++s) {
        for (ServiceId svc = 0; svc < cat.size(); ++svc) {
            EXPECT_TRUE(sim.machine(s).serviceMap().hasService(svc))
                << "server " << s << " service "
                << cat.at(svc).name;
        }
    }
}

TEST(ClusterSim, RootsCompleteAndAreRecorded)
{
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSim sim(eq, cat, uManycoreParams(), smallCluster(2));
    for (int i = 0; i < 40; ++i) {
        for (const ServiceId ep : cat.endpoints())
            sim.submitRoot(ep);
    }
    eq.run();
    EXPECT_EQ(sim.completedRoots(), 40u * 8);
    EXPECT_EQ(sim.rejectedRoots(), 0u);
    EXPECT_EQ(sim.allLatency().count(), 40u * 8);
    for (const ServiceId ep : cat.endpoints())
        EXPECT_EQ(sim.endpointLatency(ep).count(), 40u);
    // All requests freed: parents, children, remote children.
    EXPECT_EQ(sim.requestsInFlight(), 0u);
}

TEST(ClusterSim, LatenciesArePlausible)
{
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSim sim(eq, cat, uManycoreParams(), smallCluster(2));
    for (int i = 0; i < 50; ++i)
        sim.submitRoot(*cat.endpoints().begin());
    eq.run();
    const Histogram &h = sim.allLatency();
    EXPECT_GT(toUs(h.min()), 10.0);   // > pure network time
    EXPECT_LT(toMs(h.max()), 100.0);  // < pathological
    EXPECT_GT(h.p99(), h.p50());
}

TEST(ClusterSim, RecordingOffDiscardsSamples)
{
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSim sim(eq, cat, uManycoreParams(), smallCluster(1));
    sim.setRecording(false);
    for (int i = 0; i < 10; ++i)
        sim.submitRoot(cat.endpoints()[0]);
    eq.run();
    EXPECT_EQ(sim.observedRoots(), 0u);
    EXPECT_EQ(sim.allLatency().count(), 0u);
    EXPECT_EQ(sim.requestsInFlight(), 0u);
}

TEST(ClusterSim, QosViolationsCounted)
{
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSim sim(eq, cat, uManycoreParams(), smallCluster(1));
    // Impossible threshold: every request violates.
    for (const ServiceId ep : cat.endpoints())
        sim.setQosThreshold(ep, 1);
    for (int i = 0; i < 20; ++i)
        sim.submitRoot(cat.endpoints()[0]);
    eq.run();
    EXPECT_EQ(sim.qosViolations(), 20u);
}

TEST(ClusterSim, RemoteCallsCrossServers)
{
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSimParams p = smallCluster(4);
    p.localCallBias = 0.0; // every downstream call goes remote
    ClusterSim sim(eq, cat, uManycoreParams(), p);
    // CPost fans out to many services -> remote children.
    const ServiceSpec *cpost = cat.byName("CPost");
    for (int i = 0; i < 30; ++i)
        sim.submitRoot(cpost->id);
    eq.run();
    EXPECT_EQ(sim.completedRoots(), 30u);
    EXPECT_EQ(sim.requestsInFlight(), 0u);
    // Other servers actually executed work.
    std::uint64_t remote_completed = 0;
    for (ServerId s = 1; s < 4; ++s)
        remote_completed += sim.machine(s).completedRequests();
    EXPECT_GT(remote_completed, 0u);
}

TEST(ClusterSim, SyntheticWorkloadRuns)
{
    EventQueue eq;
    const ServiceCatalog cat = buildSynthetic(SyntheticParams{});
    ClusterSim sim(eq, cat, scaleOutParams(), smallCluster(2));
    for (int i = 0; i < 50; ++i)
        sim.submitRoot(0);
    eq.run();
    EXPECT_EQ(sim.completedRoots(), 50u);
    EXPECT_EQ(sim.requestsInFlight(), 0u);
}

TEST(ClusterSim, AllMachinePresetsDrainCleanly)
{
    for (const auto &mp :
         {uManycoreParams(), scaleOutParams(), serverClassParams(),
          ablationVillages(), ablationLeafSpine(), ablationHwSched(),
          ablationHwCs()}) {
        EventQueue eq;
        const ServiceCatalog cat = buildSocialNetwork();
        ClusterSim sim(eq, cat, mp, smallCluster(2));
        for (int i = 0; i < 10; ++i) {
            for (const ServiceId ep : cat.endpoints())
                sim.submitRoot(ep);
        }
        eq.run();
        EXPECT_EQ(sim.completedRoots() + sim.rejectedRoots(), 80u)
            << mp.name;
        EXPECT_EQ(sim.requestsInFlight(), 0u) << mp.name;
    }
}

TEST(ClusterSim, BlockedTimeIsSubstantial)
{
    // §3.3's qualitative claim: service requests spend a large part
    // of their lifetime blocked on calls. (Our calibration inflates
    // handler compute to match §5's utilization bands, so the
    // paper's 14%-median per-request CPU utilization is not
    // reproduced — EXPERIMENTS.md, deviation 4 — but blocking must
    // still be a first-class component, and the breakdown must add
    // up.)
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSim sim(eq, cat, uManycoreParams(), smallCluster(2));
    for (int i = 0; i < 80; ++i) {
        for (const ServiceId ep : cat.endpoints())
            sim.submitRoot(ep);
    }
    eq.run();
    EXPECT_GT(sim.blockedTimeUs().count(), 0u);
    // Blocking accounts for at least a quarter of request lifetime.
    EXPECT_GT(sim.blockedTimeUs().mean(),
              0.25 * sim.runningTimeUs().mean());
    const double util = sim.requestCpuUtilization().mean();
    EXPECT_GT(util, 0.0);
    EXPECT_LT(util, 0.95);
    // Leaf handlers never block at all; roots always do: the
    // summaries must reflect a mix.
    EXPECT_GT(sim.blockedTimeUs().max(),
              4.0 * sim.blockedTimeUs().mean());
}

TEST(ClusterSim, DeterministicForFixedSeed)
{
    auto run = []() {
        EventQueue eq;
        const ServiceCatalog cat = buildSocialNetwork();
        ClusterSim sim(eq, cat, uManycoreParams(), smallCluster(2));
        for (int i = 0; i < 64; ++i)
            sim.submitRoot(cat.endpoints()[i % 8]);
        eq.run();
        return std::make_pair(sim.allLatency().mean(),
                              sim.allLatency().max());
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace umany
