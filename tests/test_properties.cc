/**
 * @file
 * Property-style integration sweeps (TEST_P): conservation and
 * sanity invariants that must hold for every machine preset, seed,
 * and load — the request-accounting analogue of flit conservation
 * in NoC simulators.
 */

#include <gtest/gtest.h>

#include "arch/cluster_sim.hh"
#include "arch/presets.hh"
#include "sim/logging.hh"
#include "stats/stats_dump.hh"
#include "workload/app_graph.hh"
#include "workload/loadgen.hh"

namespace umany
{
namespace
{

MachineParams
presetByName(const std::string &name)
{
    if (name == "um")
        return uManycoreParams();
    if (name == "so")
        return scaleOutParams();
    if (name == "sc")
        return serverClassParams();
    if (name == "villages")
        return ablationVillages();
    if (name == "hwsched")
        return ablationHwSched();
    return uManycoreParams();
}

// The preset is a std::string, not a `const char *`: gtest prints a
// tuple's `const char *` as its address, which would put a different
// pointer in every ctest id on every build.
using Case = std::tuple<std::string, std::uint64_t>;

class ConservationTest : public ::testing::TestWithParam<Case>
{
};

TEST_P(ConservationTest, EveryRootResolvesAndNothingLeaks)
{
    const auto &[preset, seed] = GetParam();
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSimParams cp;
    cp.numServers = 2;
    cp.seed = seed;
    ClusterSim sim(eq, cat, presetByName(preset), cp);

    LoadGenParams lp;
    lp.rps = 4000.0;
    lp.kind = ArrivalKind::Bursty;
    lp.stop = fromMs(40.0);
    lp.seed = seed;
    LoadGenerator gen(eq, cat, lp,
                      [&](ServiceId ep) { sim.submitRoot(ep); });
    gen.start();
    eq.run();

    // Conservation: every generated root completed or was rejected.
    EXPECT_EQ(sim.completedRoots() + sim.rejectedRoots(),
              gen.generated());
    // No request objects leaked.
    EXPECT_EQ(sim.requestsInFlight(), 0u);
    // Latencies are physical.
    if (sim.allLatency().count() > 0) {
        EXPECT_GT(sim.allLatency().min(), fromUs(1.0));
        EXPECT_GE(sim.allLatency().p99(), sim.allLatency().p50());
    }
}

TEST_P(ConservationTest, StatsDumpIsConsistent)
{
    const auto &[preset, seed] = GetParam();
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSimParams cp;
    cp.numServers = 2;
    cp.seed = seed ^ 0xabcdull;
    ClusterSim sim(eq, cat, presetByName(preset), cp);
    for (int i = 0; i < 40; ++i)
        sim.submitRoot(cat.endpoints()[i % 8]);
    eq.run();

    StatsDump d = collectStats(sim);
    EXPECT_EQ(d.value("cluster.requests.in_flight"), 0.0);
    EXPECT_EQ(d.value("cluster.roots.completed"), 40.0);
    // Per-server completions cover at least the roots (children add
    // more).
    double machine_completed = 0.0;
    for (ServerId s = 0; s < 2; ++s) {
        machine_completed +=
            d.value(strprintf("server%u.requests.completed", s));
        // Utilizations are fractions.
        const double util = d.value(
            strprintf("server%u.cores.utilization", s));
        EXPECT_GE(util, 0.0);
        EXPECT_LE(util, 1.0);
    }
    EXPECT_GE(machine_completed, 40.0);
    // The dump renders every entry.
    const std::string text = d.format();
    for (const StatEntry &e : d.entries())
        EXPECT_NE(text.find(e.name), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndSeeds, ConservationTest,
    ::testing::Combine(::testing::Values("um", "so", "sc", "villages",
                                         "hwsched"),
                       ::testing::Values<std::uint64_t>(1, 17, 99)));

class LoadMonotonicityTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(LoadMonotonicityTest, HigherLoadNeverLowersUtilization)
{
    auto util_at = [&](double rps) {
        EventQueue eq;
        const ServiceCatalog cat = buildSocialNetwork();
        ClusterSimParams cp;
        cp.numServers = 1;
        ClusterSim sim(eq, cat, presetByName(GetParam()), cp);
        LoadGenParams lp;
        lp.rps = rps;
        lp.stop = fromMs(50.0);
        lp.seed = 5;
        LoadGenerator gen(eq, cat, lp, [&](ServiceId ep) {
            sim.submitRoot(ep);
        });
        gen.start();
        eq.runUntil(fromMs(50.0));
        return sim.machine(0).avgCoreUtilization();
    };
    const double lo = util_at(1000.0);
    const double hi = util_at(8000.0);
    EXPECT_GT(hi, lo);
}

INSTANTIATE_TEST_SUITE_P(Machines, LoadMonotonicityTest,
                         ::testing::Values("um", "so", "sc"));

class NocConservationTest : public ::testing::TestWithParam<int>
{
};

TEST_P(NocConservationTest, LinkByteCountsMatchTraffic)
{
    // Every delivered message contributes its byte size to every
    // link on its path; total link bytes must be an exact multiple
    // sum of message sizes.
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSimParams cp;
    cp.numServers = 1;
    cp.seed = static_cast<std::uint64_t>(GetParam());
    ClusterSim sim(eq, cat, uManycoreParams(), cp);
    for (int i = 0; i < 30; ++i)
        sim.submitRoot(cat.endpoints()[i % 8]);
    eq.run();

    const Network &net = sim.machine(0).network();
    EXPECT_EQ(net.messagesSent(), net.messagesDelivered());
    std::uint64_t link_msgs = 0;
    for (const LinkState &st : net.linkStates())
        link_msgs += st.messages;
    // Each non-local message crosses at least 2 links (two access
    // hops) and at most 6 (4 NH hops + 2 access).
    EXPECT_GE(link_msgs, 2 * net.messagesDelivered() * 9 / 10);
    EXPECT_LE(link_msgs, 6 * net.messagesDelivered());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NocConservationTest,
                         ::testing::Values(1, 2, 3, 4));

} // namespace
} // namespace umany
