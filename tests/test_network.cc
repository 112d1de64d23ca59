/**
 * @file
 * Tests for the message-level network engine: delivery, latency
 * accounting, contention behaviour, and statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>
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

/** One message of the reference-model test. */
struct ModelMsg
{
    Message msg;
    Tick sendAt = 0;
};

/**
 * Random sizes between random distinct endpoints (the external one
 * included), sent at random ticks of the first 20 us, so links queue.
 */
std::vector<ModelMsg>
randomTraffic(const Topology &topo, std::uint64_t seed)
{
    Rng rng(seed);
    const auto eps = static_cast<std::uint64_t>(topo.endpointCount());
    std::vector<ModelMsg> out(600);
    for (ModelMsg &m : out) {
        m.msg.src = static_cast<EndpointId>(rng.below(eps));
        do {
            m.msg.dst = static_cast<EndpointId>(rng.below(eps));
        } while (m.msg.dst == m.msg.src);
        m.msg.bytes = 1 + static_cast<std::uint32_t>(rng.below(4096));
        m.sendAt = rng.below(20 * tickPerUs);
    }
    return out;
}

/**
 * The network's contention model restated over the topology's links:
 * per hop, depart = max(t, busyUntil), busyUntil = depart + ser,
 * t = depart + latency, plus ser on the last hop, with ser from
 * LinkSpec::serializationTime of that hop's own link. Events run in
 * (tick, scheduling order), as in the kernel, and every send and hop
 * schedules one event, so ties resolve the same way.
 */
std::vector<Tick>
modelArrivals(const Topology &topo, const std::vector<ModelMsg> &msgs)
{
    // Fat trees and meshes route deterministically, so any RNG gives
    // the path the network takes.
    std::vector<std::vector<LinkId>> paths(msgs.size());
    Rng unused(0);
    for (std::size_t i = 0; i < msgs.size(); ++i)
        topo.route(msgs[i].msg.src, msgs[i].msg.dst, unused, paths[i]);
    std::vector<Tick> busy_until(topo.links().size(), 0);
    std::vector<Tick> arrival(msgs.size(), 0);
    // (tick, seq, message, hops taken).
    std::set<std::tuple<Tick, std::uint64_t, std::size_t, std::size_t>>
        pending;
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < msgs.size(); ++i)
        pending.emplace(msgs[i].sendAt, seq++, i, 0);
    while (!pending.empty()) {
        const auto [t, s, i, hop] = *pending.begin();
        pending.erase(pending.begin());
        const std::vector<LinkId> &path = paths[i];
        if (hop == path.size()) {
            arrival[i] = t;
            continue;
        }
        const LinkSpec &link = topo.links()[path[hop]];
        const Tick ser = link.serializationTime(msgs[i].msg.bytes);
        const Tick depart = std::max(t, busy_until[path[hop]]);
        busy_until[path[hop]] = depart + ser;
        const bool last = hop + 1 == path.size();
        pending.emplace(depart + link.latency + (last ? ser : 0), seq++,
                        i, hop + 1);
    }
    return arrival;
}

/** The same messages through Network, each sent by its own event. */
std::vector<Tick>
networkArrivals(const Topology &topo, const std::vector<ModelMsg> &msgs)
{
    EventQueue eq;
    Network net("net", eq, topo, 1);
    std::vector<Tick> arrival(msgs.size(), 0);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
        eq.schedule(msgs[i].sendAt, [&, i]() {
            net.send(msgs[i].msg, [&, i]() { arrival[i] = eq.now(); });
        });
    }
    eq.run();
    EXPECT_EQ(net.messagesDelivered(), msgs.size());
    return arrival;
}

void
expectMatchesModel(const Topology &topo)
{
    for (const std::uint64_t seed : {1, 2, 3}) {
        const std::vector<ModelMsg> msgs = randomTraffic(topo, seed);
        const std::vector<Tick> want = modelArrivals(topo, msgs);
        const std::vector<Tick> got = networkArrivals(topo, msgs);
        ASSERT_EQ(got.size(), want.size());
        std::size_t queued = 0;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], want[i])
                << topo.name() << " seed " << seed << " message " << i
                << " (" << msgs[i].msg.src << "->" << msgs[i].msg.dst
                << ", " << msgs[i].msg.bytes << " B)";
            const Tick ideal = topo.contentionFreeLatency(
                msgs[i].msg.src, msgs[i].msg.dst, msgs[i].msg.bytes);
            queued += got[i] > msgs[i].sendAt + ideal;
        }
        // Contention must actually shape the arrivals.
        EXPECT_GT(queued, msgs.size() / 10) << topo.name();
    }
}

TEST(NetworkModel, FatTreeArrivalsMatchReferenceModel)
{
    // Default fat tree: upper links fattened 2x per level and a
    // 1.25x NIC port at the root, so most paths cross several link
    // widths and a flight must not carry one link's serialization
    // time onto the next.
    const FatTree topo{FatTreeParams{}};
    std::set<double> widths;
    for (const LinkSpec &link : topo.links())
        widths.insert(link.bytesPerTick);
    ASSERT_EQ(widths.size(), 6u); // 5 tree levels + the NIC port
    expectMatchesModel(topo);
}

TEST(NetworkModel, MeshArrivalsMatchReferenceModel)
{
    MeshParams mp;
    mp.endpointsPerNode = 2;
    const Mesh2D topo(mp);
    expectMatchesModel(topo);
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
