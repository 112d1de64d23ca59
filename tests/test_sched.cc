/**
 * @file
 * Tests for the scheduling substrate: requests/behaviours, software
 * queue system (FCFS order, contention costs, work stealing),
 * hardware RQ (admission, buffering, rejection, promotion), the
 * dispatcher, and the ServiceMap.
 */

#include <gtest/gtest.h>

#include "sched/dispatcher.hh"
#include "sched/hw_rq.hh"
#include "sched/queue_system.hh"
#include "sched/service_map.hh"

namespace umany
{
namespace
{

Behavior
simpleBehavior()
{
    return Behavior{{fromUs(10.0)}, {}};
}

TEST(Behavior, WellFormedRules)
{
    EXPECT_TRUE(simpleBehavior().wellFormed());
    Behavior empty;
    EXPECT_FALSE(empty.wellFormed());
    Behavior mismatched{{1, 2}, {}};
    EXPECT_FALSE(mismatched.wellFormed());
    Behavior empty_group{{1, 2}, {CallGroup{}}};
    EXPECT_FALSE(empty_group.wellFormed());
    Behavior good{{1, 2}, {CallGroup{CallStep{}}}};
    EXPECT_TRUE(good.wellFormed());
    EXPECT_EQ(good.totalWork(), 3u);
    EXPECT_EQ(good.blockingCalls(), 1u);
}

TEST(ReqState, NamesAreStable)
{
    EXPECT_STREQ(reqStateName(ReqState::Queued), "queued");
    EXPECT_STREQ(reqStateName(ReqState::Rejected), "rejected");
}

TEST(ReadyList, FcfsBySequence)
{
    ReadyList list;
    ServiceRequest a(1, 0, simpleBehavior());
    ServiceRequest b(2, 0, simpleBehavior());
    ServiceRequest c(3, 0, simpleBehavior());
    list.insert(30, &c);
    list.insert(10, &a);
    list.insert(20, &b);
    EXPECT_EQ(list.popFront(), &a);
    EXPECT_EQ(list.popFront(), &b);
    EXPECT_EQ(list.popFront(), &c);
    EXPECT_EQ(list.popFront(), nullptr);
}

TEST(ReadyList, PopBackForStealing)
{
    ReadyList list;
    ServiceRequest a(1, 0, simpleBehavior());
    ServiceRequest b(2, 0, simpleBehavior());
    list.insert(1, &a);
    list.insert(2, &b);
    EXPECT_EQ(list.popBack(), &b);
    EXPECT_EQ(list.popBack(), &a);
}

SwQueueParams
qparams(std::uint32_t queues, std::uint32_t cores)
{
    SwQueueParams p;
    p.numQueues = queues;
    p.numCores = cores;
    return p;
}

TEST(SwQueueSystem, CoreToQueueMapping)
{
    SwQueueSystem q(qparams(4, 32), 1);
    EXPECT_EQ(q.queueOfCore(0), 0u);
    EXPECT_EQ(q.queueOfCore(7), 0u);
    EXPECT_EQ(q.queueOfCore(8), 1u);
    EXPECT_EQ(q.queueOfCore(31), 3u);
}

TEST(SwQueueSystem, EnqueueDequeueRoundTrip)
{
    SwQueueSystem q(qparams(2, 4), 1);
    ServiceRequest r(1, 0, simpleBehavior());
    const Tick done = q.enqueue(0, 5, &r, 100);
    EXPECT_GT(done, 100u);
    Tick deq_done = 0;
    EXPECT_EQ(q.dequeue(0, done, deq_done), &r);
    EXPECT_GT(deq_done, done);
    // Queue 1 never saw it.
    Tick d2 = 0;
    EXPECT_EQ(q.dequeue(3, 0, d2), nullptr);
}

TEST(SwQueueSystem, LockSerializesOps)
{
    SwQueueSystem q(qparams(1, 8), 1);
    ServiceRequest r(1, 0, simpleBehavior());
    const Tick t1 = q.enqueue(0, 1, &r, 0);
    ServiceRequest r2(2, 0, simpleBehavior());
    const Tick t2 = q.enqueue(0, 2, &r2, 0);
    EXPECT_GE(t2, t1); // second op waits for the lock
    EXPECT_GT(q.lockWaitTotal(), 0u);
}

TEST(SwQueueSystem, ContentionGrowsWithSharers)
{
    // Same op on a 1024-core single queue costs more than on an
    // 8-core queue (cache-line ping-pong model).
    SwQueueSystem small(qparams(1, 8), 1);
    SwQueueSystem big(qparams(1, 1024), 1);
    ServiceRequest r(1, 0, simpleBehavior());
    const Tick t_small = small.enqueue(0, 1, &r, 0);
    ServiceRequest r2(2, 0, simpleBehavior());
    const Tick t_big = big.enqueue(0, 1, &r2, 0);
    EXPECT_GT(t_big, t_small);
}

TEST(SwQueueSystem, WorkStealingFindsRemoteWork)
{
    SwQueueParams p = qparams(4, 8);
    p.workStealing = true;
    p.stealAttempts = 16; // probe until found
    SwQueueSystem q(p, 7);
    ServiceRequest r(1, 0, simpleBehavior());
    q.enqueue(3, 1, &r, 0);
    Tick done = 0;
    // Core 0's home queue (0) is empty; stealing reaches queue 3.
    EXPECT_EQ(q.dequeue(0, 0, done), &r);
    EXPECT_EQ(q.steals(), 1u);
}

TEST(SwQueueSystem, NoStealingWithoutFlag)
{
    SwQueueSystem q(qparams(4, 8), 7);
    ServiceRequest r(1, 0, simpleBehavior());
    q.enqueue(3, 1, &r, 0);
    Tick done = 0;
    EXPECT_EQ(q.dequeue(0, 0, done), nullptr);
    EXPECT_EQ(q.totalReady(), 1u);
}

TEST(SwQueueSystem, IdleCoreRegistry)
{
    SwQueueSystem q(qparams(2, 4), 1);
    q.coreIdle(0);
    q.coreIdle(1);
    EXPECT_NE(q.claimIdleCore(0), invalidId);
    EXPECT_NE(q.claimIdleCore(0), invalidId);
    EXPECT_EQ(q.claimIdleCore(0), invalidId);
    EXPECT_EQ(q.claimIdleCore(1), invalidId);
}

TEST(HwRq, AdmitUntilFullThenBufferThenReject)
{
    HwRqParams p;
    p.entries = 2;
    p.nicBufferEntries = 1;
    HwRq rq(p);
    ServiceRequest a(1, 0, simpleBehavior());
    ServiceRequest b(2, 0, simpleBehavior());
    ServiceRequest c(3, 0, simpleBehavior());
    ServiceRequest d(4, 0, simpleBehavior());
    EXPECT_EQ(rq.admit(1, &a), RqAdmit::Admitted);
    EXPECT_EQ(rq.admit(2, &b), RqAdmit::Admitted);
    EXPECT_EQ(rq.admit(3, &c), RqAdmit::Buffered);
    EXPECT_EQ(rq.admit(4, &d), RqAdmit::Rejected);
    EXPECT_TRUE(rq.full());
    EXPECT_EQ(rq.rejectedCount(), 1u);
}

TEST(HwRq, CompletePromotesBufferedRequest)
{
    HwRqParams p;
    p.entries = 1;
    p.nicBufferEntries = 4;
    HwRq rq(p);
    ServiceRequest a(1, 0, simpleBehavior());
    ServiceRequest b(2, 0, simpleBehavior());
    rq.admit(1, &a);
    rq.admit(2, &b);
    EXPECT_EQ(rq.bufferedCount(), 1u);
    Tick done = 0;
    EXPECT_EQ(rq.dequeue(0, done), &a);
    EXPECT_EQ(rq.complete(0), &b);
    EXPECT_EQ(rq.bufferedCount(), 0u);
    EXPECT_EQ(rq.inFlight(), 1u);
}

TEST(HwRq, FcfsHeadOrderIncludesUnblocked)
{
    HwRq rq{HwRqParams{}};
    ServiceRequest a(1, 0, simpleBehavior());
    ServiceRequest b(2, 0, simpleBehavior());
    rq.admit(10, &a);
    rq.admit(20, &b);
    Tick done = 0;
    EXPECT_EQ(rq.dequeue(0, done), &a);
    // a blocks; b runs; a becomes ready again with its ORIGINAL seq.
    EXPECT_EQ(rq.dequeue(0, done), &b);
    rq.makeReady(10, &a);
    ServiceRequest c(3, 0, simpleBehavior());
    rq.admit(30, &c);
    // a (seq 10) must come out before c (seq 30).
    EXPECT_EQ(rq.dequeue(0, done), &a);
    EXPECT_EQ(rq.dequeue(0, done), &c);
}

TEST(HwRq, DequeueCostsCycles)
{
    HwRqParams p;
    p.dequeueCycles = 16;
    p.ghz = 2.0;
    HwRq rq(p);
    ServiceRequest a(1, 0, simpleBehavior());
    rq.admit(1, &a);
    Tick done = 0;
    rq.dequeue(1000, done);
    EXPECT_EQ(done, 1000u + cyclesToTicks(16, 2.0));
}

TEST(HwRq, IdleCoreList)
{
    HwRq rq{HwRqParams{}};
    rq.coreIdle(5);
    rq.coreIdle(6);
    EXPECT_EQ(rq.claimIdleCore(), 6u);
    EXPECT_EQ(rq.claimIdleCore(), 5u);
    EXPECT_EQ(rq.claimIdleCore(), invalidId);
}

TEST(HwRqDeathTest, CompleteOnEmptyPanics)
{
    HwRq rq{HwRqParams{}};
    EXPECT_DEATH(rq.complete(0), "in-flight");
}

TEST(Dispatcher, SerializesAndSaturates)
{
    SwDispatcher d{DispatcherParams{1000, 2.0}};
    const Tick t1 = d.process(0);
    const Tick t2 = d.process(0);
    EXPECT_EQ(t1, cyclesToTicks(1000, 2.0));
    EXPECT_EQ(t2, 2 * t1);
    EXPECT_EQ(d.ops(), 2u);
    EXPECT_GT(d.utilization(t2), 0.99);
}

TEST(Dispatcher, ExplicitCycleCost)
{
    SwDispatcher d{DispatcherParams{1000, 2.0}};
    const Tick t = d.process(0, 4000);
    EXPECT_EQ(t, cyclesToTicks(4000, 2.0));
}

TEST(ServiceMap, RoundRobinAcrossInstances)
{
    ServiceMap map;
    map.addInstance(3, 10);
    map.addInstance(3, 20);
    map.addInstance(3, 30);
    EXPECT_TRUE(map.hasService(3));
    EXPECT_FALSE(map.hasService(4));
    EXPECT_EQ(map.pick(3), 10u);
    EXPECT_EQ(map.pick(3), 20u);
    EXPECT_EQ(map.pick(3), 30u);
    EXPECT_EQ(map.pick(3), 10u);
    EXPECT_EQ(map.villagesOf(3).size(), 3u);
    EXPECT_EQ(map.lookups(), 4u);
}

TEST(ServiceMapDeathTest, PickUnknownServicePanics)
{
    ServiceMap map;
    EXPECT_DEATH(map.pick(9), "no instance");
}

} // namespace
} // namespace umany
