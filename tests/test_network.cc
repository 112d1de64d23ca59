/**
 * @file
 * Tests for the message-level network engine: delivery, latency
 * accounting, contention behaviour, and statistics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "fault/fault_state.hh"
#include "noc/fat_tree.hh"
#include "noc/leaf_spine.hh"
#include "noc/mesh.hh"
#include "noc/network.hh"
#include "workload/app_graph.hh"

namespace umany
{
namespace
{

struct NetworkFixture : public ::testing::Test
{
    EventQueue eq;
    LeafSpine topo{LeafSpineParams{}};
    Network net{"net", eq, topo, 1};
};

TEST_F(NetworkFixture, DeliversMessage)
{
    bool delivered = false;
    Message m;
    m.src = 0;
    m.dst = 31 * 5;
    m.bytes = 256;
    net.send(m, [&]() { delivered = true; });
    eq.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(net.messagesDelivered(), 1u);
    EXPECT_EQ(net.messagesSent(), 1u);
}

TEST_F(NetworkFixture, SameEndpointIsImmediate)
{
    bool delivered = false;
    Message m;
    m.src = 3;
    m.dst = 3;
    net.send(m, [&]() { delivered = true; });
    eq.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(eq.now(), 0u);
}

TEST_F(NetworkFixture, UncontendedLatencyMatchesOracle)
{
    net.setContention(false);
    Message m;
    m.src = 0;
    m.dst = 31 * 5;
    m.bytes = 512;
    Tick arrival = 0;
    net.send(m, [&]() { arrival = eq.now(); });
    eq.run();
    EXPECT_EQ(arrival, net.idealLatency(0, 31 * 5, 512));
}

TEST_F(NetworkFixture, ContentionOnlyAddsDelay)
{
    // Fire a burst of same-destination messages; with contention
    // they serialize; without, they all see the ideal latency.
    const Tick ideal = net.idealLatency(0, 6, 4096);
    Tick last_on = 0;
    for (int i = 0; i < 50; ++i) {
        Message m;
        m.src = 0;
        m.dst = 6;
        m.bytes = 4096;
        net.send(m, [&]() { last_on = std::max(last_on, eq.now()); });
    }
    eq.run();
    EXPECT_GT(last_on, ideal);
    EXPECT_GT(net.queueDelayHist().max(), 0u);

    // Same burst without contention: everyone arrives at ideal.
    EventQueue eq2;
    Network net2("net2", eq2, topo, 1);
    net2.setContention(false);
    Tick last_off = 0;
    for (int i = 0; i < 50; ++i) {
        Message m;
        m.src = 0;
        m.dst = 6;
        m.bytes = 4096;
        net2.send(m,
                  [&]() { last_off = std::max(last_off, eq2.now()); });
    }
    eq2.run();
    EXPECT_EQ(last_off, ideal);
}

TEST_F(NetworkFixture, LinkStatsAccumulate)
{
    Message m;
    m.src = 0;
    m.dst = 31 * 5;
    m.bytes = 1024;
    net.send(m, []() {});
    eq.run();
    std::uint64_t total_msgs = 0;
    std::uint64_t total_bytes = 0;
    for (const LinkState &st : net.linkStates()) {
        total_msgs += st.messages;
        total_bytes += st.bytes;
    }
    // 4 NH hops + 2 access links.
    EXPECT_EQ(total_msgs, 6u);
    EXPECT_EQ(total_bytes, 6u * 1024);
}

TEST_F(NetworkFixture, UtilizationIsBounded)
{
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        Message m;
        m.src = static_cast<EndpointId>(rng.below(160));
        m.dst = static_cast<EndpointId>(rng.below(160));
        m.bytes = 2048;
        net.send(m, []() {});
    }
    eq.run();
    EXPECT_GE(net.meanLinkUtilization(), 0.0);
    EXPECT_LE(net.meanLinkUtilization(), 1.0);
    EXPECT_LE(net.maxLinkUtilization(), 1.0);
    EXPECT_GE(net.maxLinkUtilization(), net.meanLinkUtilization());
}

TEST_F(NetworkFixture, ClearStatsResets)
{
    Message m;
    m.src = 0;
    m.dst = 9;
    net.send(m, []() {});
    eq.run();
    net.clearStats();
    EXPECT_EQ(net.messagesDelivered(), 0u);
    EXPECT_EQ(net.latencyHist().count(), 0u);
    for (const LinkState &st : net.linkStates())
        EXPECT_EQ(st.messages, 0u);
}

TEST_F(NetworkFixture, InFlightAcrossClearStatsNotCounted)
{
    // A message launched before clearStats() must not count as a
    // delivery (or a latency sample) in the new window — otherwise
    // delivered > sent and the warmup trim pollutes measurement.
    Message m;
    m.src = 0;
    m.dst = 31 * 5;
    m.bytes = 256;
    net.send(m, []() {});
    net.clearStats();
    eq.run();
    EXPECT_EQ(net.messagesSent(), 0u);
    EXPECT_EQ(net.messagesDelivered(), 0u);
    EXPECT_EQ(net.latencyHist().count(), 0u);
}

TEST_F(NetworkFixture, UtilizationWindowStartsAtClearStats)
{
    // Let simulated time pass idle, clear, then send one message:
    // utilization must divide by the time since the clear, not since
    // tick 0 (the original bug under-reported post-warmup runs).
    const Tick idle = 50 * tickPerUs;
    eq.schedule(idle, []() {});
    eq.run();
    net.clearStats();
    Message m;
    m.src = 0;
    m.dst = 31 * 5;
    m.bytes = 4096;
    net.send(m, []() {});
    eq.run();

    Tick max_busy = 0;
    for (std::size_t i = 0; i < net.linkStates().size(); ++i) {
        if (!topo.links()[i].access)
            max_busy = std::max(max_busy,
                                net.linkStates()[i].busyTime);
    }
    ASSERT_GT(max_busy, 0u);
    ASSERT_GT(eq.now(), idle);
    const double want = static_cast<double>(max_busy) /
                        static_cast<double>(eq.now() - idle);
    EXPECT_DOUBLE_EQ(net.maxLinkUtilization(), want);
    // The unfixed divisor (since tick 0) would be much smaller.
    EXPECT_GT(net.maxLinkUtilization(),
              static_cast<double>(max_busy) /
                  static_cast<double>(eq.now()) * 1.5);
}

TEST(NetworkMesh, CornerNicConcentratesTraffic)
{
    // External traffic through a mesh funnels into node 0's links —
    // the concentration effect behind Fig 7's mesh numbers.
    EventQueue eq;
    MeshParams mp;
    mp.width = 6;
    mp.height = 6;
    mp.endpointsPerNode = 5;
    Mesh2D topo(mp);
    Network net("mesh", eq, topo, 2);
    Rng rng(3);
    for (int i = 0; i < 300; ++i) {
        Message m;
        m.src = topo.externalEndpoint();
        m.dst = static_cast<EndpointId>(rng.below(180));
        m.bytes = 2048;
        net.send(m, []() {});
    }
    eq.run();
    EXPECT_GT(net.maxLinkUtilization(),
              4.0 * net.meanLinkUtilization());
}

/**
 * A message that, on delivery, sends the next one back the other
 * way. It logs its own remaining count *after* that send, so if the
 * callback ran from storage the send had already reused, the log
 * would show the next message's count instead.
 */
struct Bounce
{
    EventQueue *eq;
    Network *net;
    std::vector<std::pair<int, Tick>> *log;
    EndpointId at;
    EndpointId other;
    int left;

    void
    operator()() const
    {
        if (left > 0) {
            Message m;
            m.src = at;
            m.dst = other;
            m.bytes = 512;
            net->send(m, Bounce{eq, net, log, other, at, left - 1});
        }
        log->emplace_back(left, eq->now());
    }
};

TEST_F(NetworkFixture, DeliverCallbackCanReuseItsFlight)
{
    // Delivery returns the flight to the pool before the callback
    // runs, so the callback's send takes that same flight at once.
    const EndpointId a = 0;
    const EndpointId b = 31 * 5;
    const Tick there = net.idealLatency(a, b, 512);
    const Tick back = net.idealLatency(b, a, 512);
    std::vector<std::pair<int, Tick>> log;
    Message m;
    m.src = a;
    m.dst = b;
    m.bytes = 512;
    net.send(m, Bounce{&eq, &net, &log, b, a, 3});
    eq.run();
    const std::vector<std::pair<int, Tick>> want = {
        {3, there},
        {2, there + back},
        {1, 2 * there + back},
        {0, 2 * there + 2 * back},
    };
    EXPECT_EQ(log, want);
    EXPECT_EQ(net.messagesSent(), 4u);
    EXPECT_EQ(net.messagesDelivered(), 4u);
}

TEST(NetworkPool, DroppedSendsReleaseFlightsAndCallbacks)
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

    Message m;
    m.src = 0;
    m.dst = 31 * 5;
    m.bytes = 256;
    // The token rides in every undelivered callback: once the drops
    // have run, nothing (the pool included) may still hold it.
    const auto token = std::make_shared<int>(0);
    int delivered = 0;
    int dropped = 0;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 40; ++i) {
            net.send(m, [&delivered, token]() { ++delivered; },
                     [&dropped]() { ++dropped; });
        }
        eq.run();
    }
    EXPECT_EQ(dropped, 120);
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(net.messagesDropped(), 120u);
    EXPECT_EQ(token.use_count(), 1);

    // Healed, the same pair delivers again on recycled flights; the
    // first message of the burst sees no contention.
    faults.setLinkUp(path[1], true);
    const Tick sent_at = eq.now();
    std::vector<Tick> arrivals;
    for (int i = 0; i < 40; ++i)
        net.send(m, [&]() { arrivals.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 40u);
    EXPECT_EQ(arrivals.front(),
              sent_at + net.idealLatency(0, 31 * 5, 256));
    EXPECT_EQ(net.messagesDelivered(), 40u);
    EXPECT_EQ(net.messagesDropped(), 120u);
}

TEST(NetworkPool, ExperimentMessageCallbacksStayInline)
{
    // Every capture on the message path (deliver and drop callbacks,
    // and the events they schedule) fits InlineFunction's buffer. A
    // heap fallback here would cost an allocation per message.
    const ServiceCatalog cat = buildSocialNetwork();
    for (const MachineParams &machine :
         {uManycoreParams(), serverClassParams()}) {
        ExperimentConfig cfg;
        cfg.machine = machine;
        cfg.cluster.numServers = 2;
        cfg.warmup = fromMs(5.0);
        cfg.measure = fromMs(20.0);
        cfg.seed = 3;
        const std::uint64_t before =
            EventQueue::Callback::heapAllocations();
        const RunMetrics m = runExperiment(cat, cfg);
        EXPECT_GT(m.completed, 0u) << machine.name;
        EXPECT_GT(m.icnMessages, 0u) << machine.name;
        EXPECT_EQ(EventQueue::Callback::heapAllocations(), before)
            << machine.name;
    }
}

} // namespace
} // namespace umany
