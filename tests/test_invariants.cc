/**
 * @file
 * Invariant-checker tests (ISSUE 3 tentpole, part 2): the lifecycle
 * state machine accepts every legal request path and flags the
 * illegal ones, auditors fire on schedule, and — in builds where the
 * hooks are compiled in — full end-to-end simulations run clean on
 * both scheduling modes.
 */

#include <gtest/gtest.h>

#include "arch/cluster_sim.hh"
#include "arch/presets.hh"
#include "sched/request.hh"
#include "validate/harness.hh"
#include "validate/invariants.hh"
#include "workload/app_graph.hh"
#include "workload/loadgen.hh"
#include "workload/synthetic.hh"

namespace umany
{
namespace
{

Behavior
oneSegment()
{
    Behavior b;
    b.segments = {fromUs(10.0)};
    return b;
}

/** A checker that records instead of panicking. */
struct SoftChecker : InvariantChecker
{
    SoftChecker() { setAbortOnViolation(false); }
};

TEST(InvariantChecker, CleanDirectLifecycle)
{
    SoftChecker c;
    ServiceRequest req(1, 0, oneSegment());
    c.onEnqueue(req);
    c.onDequeue(req);
    req.state = ReqState::Finished;
    c.onComplete(req);
    c.onDestroy(req);
    EXPECT_TRUE(c.violations().empty())
        << c.violations().front();
    EXPECT_EQ(c.liveRequests(), 0u);
    c.finalCheck();
    EXPECT_TRUE(c.violations().empty());
}

TEST(InvariantChecker, CleanBlockingLifecycle)
{
    SoftChecker c;
    ServiceRequest req(7, 0, oneSegment());
    c.onEnqueue(req);
    c.onDequeue(req);
    req.pendingChildren = 2;
    c.onBlock(req);
    req.pendingChildren = 0;
    c.onEnqueue(req); // responses arrived, re-queued
    c.onDequeue(req);
    c.onComplete(req);
    c.onDestroy(req);
    EXPECT_TRUE(c.violations().empty())
        << c.violations().front();
}

TEST(InvariantChecker, CleanRejectionLifecycle)
{
    SoftChecker c;
    ServiceRequest req(3, 0, oneSegment());
    c.onEnqueue(req);
    req.rejected = true;
    c.onReject(req);
    c.onDestroy(req);
    EXPECT_TRUE(c.violations().empty())
        << c.violations().front();
}

TEST(InvariantChecker, CleanStealLifecycle)
{
    // A steal relocates a queued entry between villages: the request
    // stays Queued and its enqueue/dequeue balance is untouched, so
    // the normal dequeue/complete path must still be legal after it.
    SoftChecker c;
    ServiceRequest req(9, 0, oneSegment());
    c.onEnqueue(req);
    c.onSteal(req);
    c.onDequeue(req);
    c.onComplete(req);
    c.onDestroy(req);
    EXPECT_TRUE(c.violations().empty())
        << c.violations().front();
    EXPECT_EQ(c.steals(), 1u);
}

TEST(InvariantChecker, StealWhileRunningFlagged)
{
    SoftChecker c;
    ServiceRequest req(9, 0, oneSegment());
    c.onEnqueue(req);
    c.onDequeue(req);
    c.onSteal(req); // only queued entries can be stolen
    EXPECT_FALSE(c.violations().empty());
}

TEST(InvariantChecker, DoubleDequeueFlagged)
{
    SoftChecker c;
    ServiceRequest req(1, 0, oneSegment());
    c.onEnqueue(req);
    c.onDequeue(req);
    c.onDequeue(req);
    EXPECT_FALSE(c.violations().empty());
}

TEST(InvariantChecker, CompleteWithoutDequeueFlagged)
{
    SoftChecker c;
    ServiceRequest req(1, 0, oneSegment());
    c.onEnqueue(req);
    c.onComplete(req);
    EXPECT_FALSE(c.violations().empty());
}

TEST(InvariantChecker, DoubleCompleteFlagged)
{
    SoftChecker c;
    ServiceRequest req(1, 0, oneSegment());
    c.onEnqueue(req);
    c.onDequeue(req);
    c.onComplete(req);
    c.onComplete(req);
    EXPECT_FALSE(c.violations().empty());
}

TEST(InvariantChecker, DestroyInFlightFlagged)
{
    SoftChecker c;
    ServiceRequest req(1, 0, oneSegment());
    c.onEnqueue(req);
    c.onDequeue(req);
    c.onDestroy(req); // never completed
    EXPECT_FALSE(c.violations().empty());
}

TEST(InvariantChecker, ReEnqueueWhileQueuedFlagged)
{
    SoftChecker c;
    ServiceRequest req(1, 0, oneSegment());
    c.onEnqueue(req);
    c.onEnqueue(req); // only legal from Blocked
    EXPECT_FALSE(c.violations().empty());
}

TEST(InvariantChecker, FinalCheckCatchesLeakedRequest)
{
    SoftChecker c;
    ServiceRequest req(9, 0, oneSegment());
    c.onEnqueue(req);
    c.finalCheck();
    EXPECT_FALSE(c.violations().empty());
}

TEST(InvariantChecker, FinalCheckCatchesLostFlight)
{
    SoftChecker c;
    c.onNetSend();
    c.finalCheck();
    EXPECT_FALSE(c.violations().empty());
}

TEST(InvariantChecker, ExpectRecordsFormattedViolation)
{
    SoftChecker c;
    c.expect(true, "never recorded");
    EXPECT_TRUE(c.violations().empty());
    c.expect(false, "law %d broke on %s", 7, "villageX");
    ASSERT_EQ(c.violations().size(), 1u);
    EXPECT_NE(c.violations()[0].find("law 7 broke on villageX"),
              std::string::npos);
}

TEST(InvariantChecker, AuditorsFireEveryPeriod)
{
    InvariantChecker c(4); // audit every 4 hook events
    c.setAbortOnViolation(false);
    int fired = 0;
    c.addAuditor("counter",
                 [&fired](InvariantChecker &) { ++fired; });
    ServiceRequest req(1, 0, oneSegment());
    for (int i = 0; i < 6; ++i) {
        c.onEnqueue(req);
        c.onDequeue(req);
        c.onComplete(req);
        c.onDestroy(req);
        req.state = ReqState::Created;
    }
    // 24 hook events / period 4 = 6 audit rounds.
    EXPECT_EQ(c.auditRuns(), 6u);
    EXPECT_EQ(fired, 6);
    c.clearAuditors();
    c.runAudits();
    EXPECT_EQ(fired, 6);
}

TEST(InvariantChecker, ScopedInstallAndRestore)
{
    EXPECT_EQ(InvariantChecker::active(), nullptr);
    {
        InvariantChecker outer;
        ScopedInvariants so(outer);
        EXPECT_EQ(InvariantChecker::active(), &outer);
        {
            InvariantChecker inner;
            ScopedInvariants si(inner);
            EXPECT_EQ(InvariantChecker::active(), &inner);
        }
        EXPECT_EQ(InvariantChecker::active(), &outer);
    }
    EXPECT_EQ(InvariantChecker::active(), nullptr);
}

#if UMANY_INVARIANTS_ENABLED

/**
 * End-to-end conservation (acceptance criterion): a real open-loop
 * run over the given machine must finish with zero violations and a
 * clean quiescence check. Exercises enqueue/dequeue/block/complete,
 * NIC buffering, the ICN, and (on ScaleOut) the software dispatcher.
 */
void
runCleanSim(const MachineParams &machine)
{
    InvariantChecker invariants(256);
    invariants.setAbortOnViolation(false);
    ScopedInvariants scope(invariants);

    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    ClusterSimParams cp;
    cp.numServers = 2;
    cp.seed = 99;
    ClusterSim sim(eq, cat, machine, cp);

    LoadGenParams lp;
    lp.rps = 20000.0;
    lp.stop = fromMs(20.0);
    lp.seed = 7;
    LoadGenerator gen(eq, cat, lp, [&sim](ServiceId ep) {
        sim.submitRoot(ep);
    });
    gen.start();
    const bool drained = eq.runUntil(fromMs(500.0));
    ASSERT_TRUE(drained) << machine.name;
    invariants.finalCheck();
    invariants.clearAuditors();

    EXPECT_GT(invariants.hookEvents(), 1000u) << machine.name;
    EXPECT_GT(invariants.auditRuns(), 0u) << machine.name;
    EXPECT_TRUE(invariants.violations().empty())
        << machine.name << ": " << invariants.violations().front();
}

TEST(InvariantChecker, EndToEndCleanOnHwRqMachine)
{
    runCleanSim(uManycoreParams());
}

TEST(InvariantChecker, EndToEndCleanOnSwQueueMachine)
{
    runCleanSim(scaleOutParams());
}

TEST(InvariantChecker, EndToEndCleanOnValidationMachine)
{
    runCleanSim(validate::validationMachineParams(8));
}

#endif // UMANY_INVARIANTS_ENABLED

} // namespace
} // namespace umany
