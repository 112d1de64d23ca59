/**
 * @file
 * Tests for the MediaService graph and the §8 heterogeneous-village
 * extension, including the paper's "results are similar for the
 * other applications" cross-check at the integration level.
 */

#include <gtest/gtest.h>

#include "arch/cluster_sim.hh"
#include "arch/presets.hh"
#include "workload/media_graph.hh"

namespace umany
{
namespace
{

TEST(MediaService, HasAllSixEndpoints)
{
    const ServiceCatalog cat = buildMediaService();
    EXPECT_EQ(cat.endpoints().size(), 6u);
    for (const char *name : mediaServiceEndpointNames)
        EXPECT_NE(cat.byName(name), nullptr) << name;
}

TEST(MediaService, BehavioursWellFormedAndResolvable)
{
    const ServiceCatalog cat = buildMediaService();
    Rng rng(1);
    Behavior b;
    for (ServiceId s = 0; s < cat.size(); ++s) {
        for (int i = 0; i < 30; ++i) {
            cat.makeBehavior(s, rng, b);
            EXPECT_TRUE(b.wellFormed());
            for (std::size_t g = 0; g < b.blockingCalls(); ++g) {
                for (const CallStep &c : b.group(g)) {
                    if (c.kind == CallStep::Kind::Service) {
                        EXPECT_LT(c.callee, cat.size());
                    }
                }
            }
        }
    }
}

TEST(MediaService, ComposeReviewIsHeaviest)
{
    const ServiceCatalog cat = buildMediaService();
    Rng rng(2);
    Behavior b;
    auto mean_work = [&](const char *name) {
        double total = 0.0;
        for (int i = 0; i < 200; ++i) {
            cat.makeBehavior(cat.byName(name)->id, rng, b);
            total += static_cast<double>(b.totalWork());
        }
        return total;
    };
    const double compose = mean_work("ComposeReview");
    EXPECT_GT(compose, mean_work("Login"));
    EXPECT_GT(compose, mean_work("Rate"));
    EXPECT_GT(compose, mean_work("CastInfo"));
}

TEST(MediaService, RunsEndToEndOnAllMachines)
{
    const ServiceCatalog cat = buildMediaService();
    for (const auto &mp :
         {uManycoreParams(), scaleOutParams(), serverClassParams()}) {
        EventQueue eq;
        ClusterSimParams cp;
        cp.numServers = 2;
        ClusterSim sim(eq, cat, mp, cp);
        for (int i = 0; i < 12; ++i) {
            for (const ServiceId ep : cat.endpoints())
                sim.submitRoot(ep);
        }
        eq.run();
        EXPECT_EQ(sim.completedRoots() + sim.rejectedRoots(), 72u)
            << mp.name;
        EXPECT_EQ(sim.requestsInFlight(), 0u) << mp.name;
    }
}

TEST(MediaService, UManycoreBeatsServerClassUnderLoadToo)
{
    // "Results are similar for the other applications" (§5): under
    // heavy load the media graph should show the same winner.
    auto tail = [](const MachineParams &mp) {
        EventQueue eq;
        const ServiceCatalog cat = buildMediaService();
        ClusterSimParams cp;
        cp.numServers = 1;
        ClusterSim sim(eq, cat, mp, cp);
        Rng rng(3);
        // Open-loop burst of 3000 roots over 100 ms (30K RPS-ish).
        Tick t = 0;
        for (int i = 0; i < 3000; ++i) {
            t += fromUs(rng.expMean(33.0));
            eq.schedule(t, [&sim, &cat, i]() {
                sim.submitRoot(
                    cat.endpoints()[static_cast<std::size_t>(i) % 6]);
            });
        }
        eq.run();
        return sim.allLatency().p99();
    };
    EXPECT_LT(tail(uManycoreParams()),
              tail(serverClassParams()) / 2);
}

TEST(HeteroVillages, BigVillagesRunFaster)
{
    MachineParams p = uManycoreParams();
    p.bigVillageFraction = 0.25;
    p.bigVillagePerfFactor = 0.5;
    EventQueue eq;
    Machine m("m", eq, p, 0, 1);
    // 128 villages -> first 32 are big.
    EXPECT_DOUBLE_EQ(m.villagePerfFactor(0), 0.5);
    EXPECT_DOUBLE_EQ(m.villagePerfFactor(31), 0.5);
    EXPECT_DOUBLE_EQ(m.villagePerfFactor(32), 1.0);
    EXPECT_DOUBLE_EQ(m.villagePerfFactor(127), 1.0);
}

TEST(HeteroVillages, DisabledByDefault)
{
    EventQueue eq;
    Machine m("m", eq, uManycoreParams(), 0, 1);
    EXPECT_DOUBLE_EQ(m.villagePerfFactor(0), 1.0);
}

TEST(HeteroVillages, EndToEndLatencyImproves)
{
    auto mean_latency = [](double fraction) {
        EventQueue eq;
        const ServiceCatalog cat = buildMediaService();
        MachineParams mp = uManycoreParams();
        mp.bigVillageFraction = fraction;
        mp.bigVillagePerfFactor = 0.5;
        ClusterSimParams cp;
        cp.numServers = 1;
        ClusterSim sim(eq, cat, mp, cp);
        for (int i = 0; i < 60; ++i)
            sim.submitRoot(cat.endpoints()[i % 6]);
        eq.run();
        return sim.allLatency().mean();
    };
    // All-big is strictly faster than homogeneous.
    EXPECT_LT(mean_latency(1.0), mean_latency(0.0));
}

} // namespace
} // namespace umany
