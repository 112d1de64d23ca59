/**
 * @file
 * Tests for the scheduling substrate: requests/behaviours, software
 * queue system (FCFS order, contention costs, work stealing),
 * hardware RQ (admission, buffering, rejection, promotion), the
 * dispatcher, and the ServiceMap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "obs/attrib.hh"
#include "sched/dispatcher.hh"
#include "sched/hw_rq.hh"
#include "sched/queue_system.hh"
#include "sched/service_map.hh"
#include "sim/rng.hh"

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
    Behavior empty_group{{1, 2}, {}, {0}};
    EXPECT_FALSE(empty_group.wellFormed());
    Behavior uncovered{{1, 2}, {CallStep{}, CallStep{}}, {1}};
    EXPECT_FALSE(uncovered.wellFormed());
    Behavior good{{1, 2}, {CallStep{}}, {1}};
    EXPECT_TRUE(good.wellFormed());
    EXPECT_EQ(good.group(0).size(), 1u);
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

TEST(ReadyListDeathTest, DuplicateSeqPanicsNamingIt)
{
    // A second entry with a listed seq would never run; the list
    // refuses it loudly instead of dropping it.
    ReadyList list;
    ServiceRequest a(1, 0, simpleBehavior());
    ServiceRequest b(2, 0, simpleBehavior());
    list.insert(5, &a);
    list.insert(9, &a);
    EXPECT_DEATH(list.insert(5, &b), "duplicate seq 5");
    EXPECT_DEATH(list.insert(9, &b), "duplicate seq 9");
}

TEST(ReadyListFuzz, MatchesMapReference)
{
    // Fresh arrivals carry increasing seqs; a popped request may
    // come back later with its old seq, as an unblocked request
    // does. Each round grows the list past 4,096 entries, the depth
    // a saturated software queue reaches, then drains it to empty;
    // every operation is checked against a std::map.
    Rng rng(0x5eed);
    std::deque<ServiceRequest> reqs; // reqs[seq - 1] carries seq
    std::map<std::uint64_t, ServiceRequest *> ref;
    std::vector<std::uint64_t> parked; // popped, may come back
    ReadyList list;
    std::uint64_t mismatches = 0;
    std::size_t peak = 0;

    const auto step = [&](double fresh, double back, double front) {
        const double u = rng.uniform(0.0, 1.0);
        if (u < fresh || (u < fresh + back && parked.empty())) {
            const std::uint64_t seq = reqs.size() + 1;
            reqs.emplace_back(seq, 0, simpleBehavior());
            list.insert(seq, &reqs.back());
            ref.emplace(seq, &reqs.back());
        } else if (u < fresh + back) {
            const std::size_t i = rng.below(parked.size());
            const std::uint64_t seq = parked[i];
            parked[i] = parked.back();
            parked.pop_back();
            list.insert(seq, &reqs[seq - 1]);
            ref.emplace(seq, &reqs[seq - 1]);
        } else {
            const bool oldest = u < fresh + back + front;
            ServiceRequest *got =
                oldest ? list.popFront() : list.popBack();
            ServiceRequest *want = nullptr;
            if (!ref.empty()) {
                const auto it =
                    oldest ? ref.begin() : std::prev(ref.end());
                want = it->second;
                ref.erase(it);
            }
            mismatches += got != want;
            if (got != nullptr && rng.chance(0.5))
                parked.push_back(got->id());
        }
        mismatches += list.size() != ref.size();
        mismatches += list.empty() != ref.empty();
        peak = std::max(peak, list.size());
    };

    for (int round = 0; round < 4 && mismatches == 0; ++round) {
        const std::size_t target = 4096 + rng.below(2048);
        while (ref.size() < target && mismatches == 0)
            step(0.45, 0.2, 0.25);
        while (!ref.empty() && mismatches == 0)
            step(0.1, 0.1, 0.55);
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GE(peak, 4096u);
    EXPECT_TRUE(list.empty());
}

TEST(ServiceRequest, ResetMatchesFreshConstruction)
{
    // A recycled request keeps its Behavior's capacity and nothing
    // else.
    ServiceRequest parent(1, 0, simpleBehavior());
    AttribRecord rec;
    ServiceRequest used(2, 3, Behavior{{1, 2, 3}, {CallStep{}}, {1}});
    used.parent = &parent;
    used.pendingChildren = 2;
    used.blockedGroup = 1;
    used.server = 4;
    used.village = 5;
    used.lastCore = 6;
    used.segIndex = 2;
    used.state = ReqState::Finished;
    used.createdAt = 10;
    used.enqueuedAt = 11;
    used.finishedAt = 12;
    used.queuedTime = 13;
    used.blockedTime = 14;
    used.runningTime = 15;
    used.contextSwitches = 16;
    used.rootEndpoint = 17;
    used.taskSlot = 18;
    used.seq = 19;
    used.queueId = 20;
    used.pendingOverhead = 21;
    used.respBytes = 22;
    used.reqBytes = 23;
    used.rejected = true;
    used.attrib = &rec;
    const std::size_t segs = used.behavior().segments.capacity();
    const std::size_t calls = used.behavior().calls.capacity();

    used.reset(7, 8);
    const ServiceRequest fresh(7, 8, Behavior{});
    EXPECT_EQ(used.id(), fresh.id());
    EXPECT_EQ(used.service(), fresh.service());
    EXPECT_EQ(used.parent, fresh.parent);
    EXPECT_EQ(used.pendingChildren, fresh.pendingChildren);
    EXPECT_EQ(used.blockedGroup, fresh.blockedGroup);
    EXPECT_EQ(used.server, fresh.server);
    EXPECT_EQ(used.village, fresh.village);
    EXPECT_EQ(used.lastCore, fresh.lastCore);
    EXPECT_EQ(used.segIndex, fresh.segIndex);
    EXPECT_EQ(used.state, fresh.state);
    EXPECT_EQ(used.createdAt, fresh.createdAt);
    EXPECT_EQ(used.enqueuedAt, fresh.enqueuedAt);
    EXPECT_EQ(used.finishedAt, fresh.finishedAt);
    EXPECT_EQ(used.queuedTime, fresh.queuedTime);
    EXPECT_EQ(used.blockedTime, fresh.blockedTime);
    EXPECT_EQ(used.runningTime, fresh.runningTime);
    EXPECT_EQ(used.contextSwitches, fresh.contextSwitches);
    EXPECT_EQ(used.rootEndpoint, fresh.rootEndpoint);
    EXPECT_EQ(used.taskSlot, fresh.taskSlot);
    EXPECT_EQ(used.seq, fresh.seq);
    EXPECT_EQ(used.queueId, fresh.queueId);
    EXPECT_EQ(used.pendingOverhead, fresh.pendingOverhead);
    EXPECT_EQ(used.respBytes, fresh.respBytes);
    EXPECT_EQ(used.reqBytes, fresh.reqBytes);
    EXPECT_EQ(used.rejected, fresh.rejected);
    EXPECT_EQ(used.attrib, fresh.attrib);
    EXPECT_EQ(used.behavior(), fresh.behavior());
    EXPECT_GE(used.behavior().segments.capacity(), segs);
    EXPECT_GE(used.behavior().calls.capacity(), calls);
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
