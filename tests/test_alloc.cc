/**
 * @file
 * The allocation budget of a request's life. This binary replaces
 * the global operator new with a counting forwarder, as perfbench's
 * pb_trace does, and checks that once a run has warmed up the
 * simulator makes at most one heap allocation per hundred events:
 * requests and their behaviours, ready-list entries, ledger records,
 * critical paths and client tasks are all recycled, with recovery
 * off and on. A per-request allocation that comes back costs several
 * allocations per root, about 0.3 per event, and fails here; so do
 * two hash-map entries per root, about 0.016 per event.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "arch/cluster_sim.hh"
#include "arch/presets.hh"
#include "obs/attrib.hh"
#include "rack/rack_sim.hh"
#include "workload/app_graph.hh"
#include "workload/loadgen.hh"

namespace
{

// One thread runs each simulation; a plain counter is enough.
std::uint64_t allocCount = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++allocCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace umany
{
namespace
{

constexpr double kMaxAllocsPerEvent = 0.01;
/** Arrivals stop at kLoadEnd; allocations are counted over
 *  [kWarm, kMeasureEnd), after the pools have grown. */
constexpr Tick kWarm = fromMs(20.0);
constexpr Tick kMeasureEnd = fromMs(50.0);
constexpr Tick kLoadEnd = fromMs(60.0);

LoadGenParams
load(double rps, std::uint32_t streams)
{
    LoadGenParams lp;
    lp.rps = rps;
    lp.stop = kLoadEnd;
    lp.seed = 5;
    lp.streams = streams;
    return lp;
}

/** Heap allocations per dispatched event over the measured window;
 *  the run then drains. */
double
allocsPerEvent(EventQueue &eq)
{
    eq.runUntil(kWarm);
    const std::uint64_t allocs = allocCount;
    const std::uint64_t events = eq.dispatched();
    eq.runUntil(kMeasureEnd);
    const double per_event =
        static_cast<double>(allocCount - allocs) /
        static_cast<double>(eq.dispatched() - events);
    eq.run();
    return per_event;
}

/** A 2-server cluster at 15K RPS per server. */
void
expectClusterInBudget(bool recovery)
{
    const ServiceCatalog cat = buildSocialNetwork();
    EventQueue eq;
    ClusterSimParams cp;
    cp.numServers = 2;
    cp.recovery.enabled = recovery;
    ClusterSim sim(eq, cat, uManycoreParams(), cp);
    LoadGenerator gen(eq, cat, load(2 * 15000.0, 1),
                      [&sim](ServiceId ep) { sim.submitRoot(ep); });
    gen.start();

    EXPECT_LE(allocsPerEvent(eq), kMaxAllocsPerEvent);
    EXPECT_GT(sim.completedRoots(), 0u);
    EXPECT_EQ(sim.requestsInFlight(), 0u);
}

/** A 2-package po2c rack of 2-server packages, ledger on. */
void
expectRackInBudget(bool recovery)
{
    const ServiceCatalog cat = buildSocialNetwork();
    AttribRegistry ledger;
    ScopedAttrib scope(&ledger);
    EventQueue eq;
    RackSimParams rp;
    rp.packages = 2;
    rp.replica.kind = DispatchKind::Po2c;
    rp.cluster.numServers = 2;
    rp.cluster.recovery.enabled = recovery;
    RackSim rack(eq, cat, {uManycoreParams()}, rp);
    LoadGenerator gen(eq, cat, load(4 * 15000.0, rp.packages),
                      [&rack](ServiceId ep) { rack.submitRoot(ep); });
    gen.start();

    EXPECT_LE(allocsPerEvent(eq), kMaxAllocsPerEvent);
    EXPECT_GT(ledger.rootsObserved(), 0u);
    EXPECT_EQ(ledger.liveRecords(), 0u);
    EXPECT_EQ(rack.pendingRoots(), 0u);
}

TEST(AllocBudget, ClusterRequestLifecycle)
{
    expectClusterInBudget(false);
}

TEST(AllocBudget, RecoveringClusterRequestLifecycle)
{
    expectClusterInBudget(true);
}

TEST(AllocBudget, RackWithLedgerOn)
{
    expectRackInBudget(false);
}

TEST(AllocBudget, RecoveringRackWithLedgerOn)
{
    expectRackInBudget(true);
}

} // namespace
} // namespace umany
