/**
 * @file
 * Integration tests for the Machine: construction invariants for
 * the three presets, village/endpoint mapping, and single-request
 * execution through the hardware and software scheduling paths.
 */

#include <gtest/gtest.h>

#include "arch/machine.hh"
#include "arch/presets.hh"

namespace umany
{
namespace
{

TEST(MachinePresets, UManycoreStructure)
{
    EventQueue eq;
    Machine m("m", eq, uManycoreParams(), 0, 1);
    EXPECT_EQ(m.numVillages(), 128u);
    EXPECT_EQ(m.numClusters(), 32u);
    EXPECT_EQ(m.cores().size(), 1024u);
    EXPECT_EQ(m.topology().name(), "leaf-spine");
    EXPECT_EQ(m.villageOfCore(0), 0u);
    EXPECT_EQ(m.villageOfCore(8), 1u);
    EXPECT_EQ(m.clusterOfVillage(4), 1u);
    // Villages have hardware RQs; clusters have pool endpoints.
    EXPECT_NE(m.village(0).rq, nullptr);
    EXPECT_NE(m.cluster(0).poolEndpoint, invalidId);
}

TEST(MachinePresets, ScaleOutStructure)
{
    EventQueue eq;
    Machine m("m", eq, scaleOutParams(), 0, 1);
    EXPECT_EQ(m.topology().name(), "fat-tree");
    EXPECT_EQ(m.village(0).rq, nullptr); // software queues
    EXPECT_EQ(m.numClusters(), 32u);
}

TEST(MachinePresets, ServerClassStructure)
{
    EventQueue eq;
    Machine m("m", eq, serverClassParams(), 0, 1);
    EXPECT_EQ(m.cores().size(), 40u);
    EXPECT_EQ(m.numVillages(), 40u); // private L2 per core
    EXPECT_EQ(m.topology().name(), "mesh2d");
    EXPECT_EQ(m.cluster(0).poolEndpoint, invalidId);
    EXPECT_LT(m.params().perfFactor, 1.0);
}

TEST(MachinePresets, AblationLadderFlagsProgress)
{
    const MachineParams so = scaleOutParams();
    const MachineParams v = ablationVillages();
    const MachineParams ls = ablationLeafSpine();
    const MachineParams hs = ablationHwSched();
    const MachineParams hc = ablationHwCs();

    EXPECT_EQ(so.coherence.scope, CoherenceScope::Global);
    EXPECT_EQ(v.coherence.scope, CoherenceScope::Village);
    EXPECT_EQ(v.topo, MachineParams::Topo::FatTree);
    EXPECT_EQ(ls.topo, MachineParams::Topo::LeafSpine);
    EXPECT_EQ(ls.sched, MachineParams::Sched::SwQueue);
    EXPECT_EQ(hs.sched, MachineParams::Sched::HwRq);
    EXPECT_NE(hs.cs.scheme, CsScheme::HardwareRq);
    EXPECT_EQ(hc.cs.scheme, CsScheme::HardwareRq);
}

TEST(MachinePresets, Fig19ConfigsValidate)
{
    for (const auto &[cpv, vpc, cl] :
         {std::tuple<unsigned, unsigned, unsigned>{8, 4, 32},
          {32, 1, 32},
          {32, 2, 16},
          {32, 4, 8}}) {
        EventQueue eq;
        Machine m("m", eq, uManycoreConfigParams(cpv, vpc, cl), 0, 1);
        EXPECT_EQ(m.numClusters(), cl);
        EXPECT_EQ(m.cores().size(), 1024u);
    }
}

TEST(MachinePresetsDeathTest, BadConfigTotalIsFatal)
{
    EXPECT_DEATH(uManycoreConfigParams(8, 4, 16), "does not total");
}

TEST(MachinePresets, VillageEndpointsAreUniqueAndValid)
{
    EventQueue eq;
    Machine m("m", eq, uManycoreParams(), 0, 1);
    std::set<EndpointId> seen;
    for (VillageId v = 0; v < m.numVillages(); ++v) {
        const EndpointId ep = m.villageEndpoint(v);
        EXPECT_LT(ep, m.topology().endpointCount());
        EXPECT_TRUE(seen.insert(ep).second);
    }
}

/** Fixture running single requests through one machine. */
class SingleRequestTest
    : public ::testing::TestWithParam<const char *>
{
  protected:
    MachineParams
    params() const
    {
        const std::string kind = GetParam();
        if (kind == "um")
            return uManycoreParams();
        if (kind == "so")
            return scaleOutParams();
        return serverClassParams();
    }
};

TEST_P(SingleRequestTest, CompletesWithPlausibleLatency)
{
    EventQueue eq;
    Machine m("m", eq, params(), 0, 7);
    m.installInstance(0, 0);

    // Two compute segments with one storage call between them.
    Behavior b;
    b.segments = {fromUs(50.0), fromUs(30.0)};
    CallStep storage;
    storage.kind = CallStep::Kind::Storage;
    b.addGroup({storage});

    ServiceRequest req(1, 0, b);
    req.reqBytes = 512;
    req.respBytes = 1024;

    ServiceRequest *done = nullptr;
    m.onRootComplete = [&](ServiceRequest *r) { done = r; };
    m.onStorageCall = [&](ServiceRequest *parent, const CallStep &) {
        // Storage responds 100 us later.
        eq.scheduleAfter(fromUs(100.0), [&m, parent]() {
            m.externalResponse(parent, 1024);
        });
    };
    m.onServiceCall = [](ServiceRequest *, const CallStep &) {
        FAIL() << "no service calls in this behaviour";
    };

    m.externalArrival(&req);
    eq.run();

    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->state, ReqState::Finished);
    EXPECT_EQ(done->contextSwitches, 2u); // out + in
    // Latency at least compute + storage.
    EXPECT_GE(done->finishedAt, fromUs(170.0));
    // ... and below a loose bound (no pathological stalls).
    EXPECT_LT(done->finishedAt, fromMs(2.0));
    EXPECT_GT(done->runningTime, 0u);
    EXPECT_GT(done->blockedTime, 0u);
    EXPECT_EQ(m.completedRequests(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllMachines, SingleRequestTest,
                         ::testing::Values("um", "so", "sc"));

TEST(Machine, ParallelCallGroupWaitsForAllResponses)
{
    EventQueue eq;
    Machine m("m", eq, uManycoreParams(), 0, 7);
    m.installInstance(0, 0);

    Behavior b;
    b.segments = {fromUs(10.0), fromUs(10.0)};
    CallStep s;
    s.kind = CallStep::Kind::Storage;
    b.addGroup({s, s, s}); // three parallel calls

    ServiceRequest req(1, 0, b);
    ServiceRequest *done = nullptr;
    int storage_calls = 0;
    m.onRootComplete = [&](ServiceRequest *r) { done = r; };
    m.onStorageCall = [&](ServiceRequest *parent, const CallStep &) {
        ++storage_calls;
        // Staggered responses: 50, 100, 150 us.
        eq.scheduleAfter(fromUs(50.0 * storage_calls),
                         [&m, parent]() {
                             m.externalResponse(parent, 512);
                         });
    };
    m.onServiceCall = [](ServiceRequest *, const CallStep &) {};

    m.externalArrival(&req);
    eq.run();

    ASSERT_NE(done, nullptr);
    EXPECT_EQ(storage_calls, 3);
    // Must wait for the slowest response (150 us), not the first.
    EXPECT_GE(done->finishedAt, fromUs(170.0));
}

TEST(Machine, RejectsWhenRqAndNicBufferFull)
{
    MachineParams p = uManycoreParams();
    p.rq.entries = 1;
    p.rq.nicBufferEntries = 1;
    EventQueue eq;
    Machine m("m", eq, p, 0, 7);
    m.installInstance(0, 0); // single village hosts the service

    // Long-running behaviour so requests pile up.
    std::vector<std::unique_ptr<ServiceRequest>> reqs;
    int completed = 0;
    int rejected = 0;
    m.onRootComplete = [&](ServiceRequest *r) {
        if (r->rejected)
            ++rejected;
        else
            ++completed;
    };
    m.onStorageCall = [](ServiceRequest *, const CallStep &) {};
    m.onServiceCall = [](ServiceRequest *, const CallStep &) {};

    for (int i = 0; i < 6; ++i) {
        Behavior b;
        b.segments = {fromMs(1.0)};
        reqs.push_back(std::make_unique<ServiceRequest>(
            static_cast<RequestId>(i + 1), 0, b));
        m.externalArrival(reqs.back().get());
    }
    eq.run();
    EXPECT_GT(rejected, 0);
    EXPECT_GT(completed, 0);
    EXPECT_EQ(completed + rejected, 6);
    EXPECT_EQ(m.rejectedRequests(),
              static_cast<std::uint64_t>(rejected));
}

TEST(Machine, UtilizationReflectsWork)
{
    EventQueue eq;
    Machine m("m", eq, uManycoreParams(), 0, 7);
    m.installInstance(0, 0);
    Behavior b;
    b.segments = {fromMs(1.0)};
    ServiceRequest req(1, 0, b);
    m.onRootComplete = [](ServiceRequest *) {};
    m.onStorageCall = [](ServiceRequest *, const CallStep &) {};
    m.onServiceCall = [](ServiceRequest *, const CallStep &) {};
    m.externalArrival(&req);
    eq.run();
    EXPECT_GT(m.avgCoreUtilization(), 0.0);
}

TEST(MachineDeathTest, ArrivalForUnknownServiceIsFatal)
{
    EventQueue eq;
    Machine m("m", eq, uManycoreParams(), 0, 7);
    Behavior b;
    b.segments = {1};
    ServiceRequest req(1, 5, b);
    EXPECT_DEATH(m.externalArrival(&req), "no instance");
}

} // namespace
} // namespace umany
