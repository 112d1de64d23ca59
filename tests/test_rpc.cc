/**
 * @file
 * Tests for the RPC substrate: NIC cost models, lossy transport,
 * top-level NIC, and the inter-server network.
 */

#include <gtest/gtest.h>

#include "rpc/inter_server.hh"
#include "rpc/nic.hh"
#include "rpc/top_nic.hh"
#include "rpc/transport.hh"

namespace umany
{
namespace
{

TEST(VillageNic, HardwareRpcCostsNoCoreCycles)
{
    NicParams p;
    p.hardwareRpc = true;
    VillageNic nic(p);
    EXPECT_EQ(nic.rxCoreCycles(), 0u);
    EXPECT_EQ(nic.txCoreCycles(), p.hwTxCycles);
    EXPECT_GT(nic.rxLatency(), 0u);
}

TEST(VillageNic, SoftwareRpcTaxesTheCore)
{
    NicParams p;
    p.hardwareRpc = false;
    VillageNic nic(p);
    EXPECT_EQ(nic.rxCoreCycles(), p.swRxCycles);
    EXPECT_EQ(nic.txCoreCycles(), p.swTxCycles);
    EXPECT_GT(nic.txCoreTime(), 0u);
}

TEST(VillageNic, CountsMessages)
{
    VillageNic nic{NicParams{}};
    nic.countRx();
    nic.countRx();
    nic.countTx();
    EXPECT_EQ(nic.rxMessages(), 2u);
    EXPECT_EQ(nic.txMessages(), 1u);
}

TEST(RNicTransport, PenaltyAtLeastProtocolOverhead)
{
    RNicTransportParams p;
    p.lossProbability = 0.0;
    RNicTransport t(p, 1);
    EXPECT_EQ(t.sendPenalty(), p.protocolOverhead);
    EXPECT_EQ(t.retransmissions(), 0u);
}

TEST(RNicTransport, LossCausesRetransmissions)
{
    RNicTransportParams p;
    p.lossProbability = 1.0; // always lose (up to maxRetries)
    p.maxRetries = 3;
    RNicTransport t(p, 1);
    const Tick penalty = t.sendPenalty();
    EXPECT_EQ(penalty,
              p.protocolOverhead + 3 * p.retransmitTimeout);
    EXPECT_EQ(t.retransmissions(), 3u);
}

TEST(TopLevelNic, IngressOccupiesBandwidth)
{
    TopNicParams p;
    p.extGBs = 1.0; // 1 byte/ns
    TopLevelNic nic(p);
    const Tick t1 = nic.ingress(0, 1000);
    // 1000 bytes at 1 B/ns plus the HW dispatch cost.
    EXPECT_GE(t1, fromNs(1000.0));
    const Tick t2 = nic.ingress(0, 1000);
    EXPECT_GT(t2, t1); // serialized on the link
    EXPECT_EQ(nic.ingressMsgs(), 2u);
    EXPECT_EQ(nic.ingressBytes(), 2000u);
}

TEST(TopLevelNic, EgressIndependentOfIngress)
{
    TopNicParams p;
    p.extGBs = 1.0;
    TopLevelNic nic(p);
    nic.ingress(0, 100000);
    const Tick e = nic.egress(0, 1000);
    EXPECT_LE(e, fromNs(1100.0)); // not blocked by ingress
    EXPECT_EQ(nic.egressMsgs(), 1u);
}

TEST(TopLevelNic, SoftwareDispatchSkipsHwCost)
{
    TopNicParams hw;
    hw.hardwareDispatch = true;
    TopNicParams sw = hw;
    sw.hardwareDispatch = false;
    TopLevelNic a(hw), b(sw);
    EXPECT_GT(a.ingress(0, 64), b.ingress(0, 64));
}

TEST(InterServer, LatencyAndOccupancy)
{
    InterServerParams p;
    p.numServers = 4;
    p.linkGBs = 1.0;
    InterServerNet net(p);
    const Tick t = net.send(0, 1, 1000, 0);
    // serialization(1us) + latency(500ns) + rx serialization(1us).
    EXPECT_GE(t, p.oneWayLatency + 2 * fromNs(1000.0));
    EXPECT_EQ(net.messages(), 1u);
    EXPECT_EQ(net.bytes(), 1000u);
}

TEST(InterServer, EgressSerializesPerServer)
{
    InterServerParams p;
    p.numServers = 4;
    p.linkGBs = 1.0;
    InterServerNet net(p);
    const Tick t1 = net.send(0, 1, 100000, 0);
    const Tick t2 = net.send(0, 2, 100000, 0);
    EXPECT_GT(t2, t1 - p.oneWayLatency); // src egress shared
    // Different sources are independent.
    InterServerNet net2(p);
    const Tick a = net2.send(0, 2, 100000, 0);
    const Tick b = net2.send(1, 3, 100000, 0);
    EXPECT_EQ(a, b);
}

TEST(InterServerDeathTest, OutOfRangePanics)
{
    InterServerParams p;
    p.numServers = 2;
    InterServerNet net(p);
    EXPECT_DEATH(net.send(0, 5, 100, 0), "out of range");
}

} // namespace
} // namespace umany
