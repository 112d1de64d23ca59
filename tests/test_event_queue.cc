/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace umany
{
namespace
{

TEST(EventQueue, StartsAtZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        ++fired;
        eq.scheduleAfter(4, [&]() { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.schedule(30, [&]() { ++fired; });
    EXPECT_FALSE(eq.runUntil(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilInclusiveOfLimitTick)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(50, [&]() { fired = true; });
    EXPECT_TRUE(eq.runUntil(50));
    EXPECT_TRUE(fired);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, []() {}), "past");
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.schedule(20, []() {});
    eq.step();
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.dispatched(), 0u);
}

TEST(EventQueue, CountsDispatchedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Tick>(i), []() {});
    eq.run();
    EXPECT_EQ(eq.dispatched(), 5u);
}

TEST(EventQueue, ResetKeepsAllocatedCapacity)
{
    EventQueue eq;
    for (int i = 0; i < 10000; ++i)
        eq.schedule(static_cast<Tick>(i), []() {});
    const std::size_t grown = eq.capacity();
    EXPECT_GE(grown, 10000u);
    eq.reset();
    EXPECT_TRUE(eq.empty());
    // clear, don't free: back-to-back runs in one process must not
    // re-warm the allocator.
    EXPECT_EQ(eq.capacity(), grown);
}

TEST(EventQueue, ReserveGrowsCapacity)
{
    EventQueue eq;
    eq.reserve(5000);
    EXPECT_GE(eq.capacity(), 5000u);
}

TEST(EventQueue, SlotRecyclingSurvivesMixedScheduleDispatch)
{
    // Interleave schedule/dispatch so freed slab slots are reused
    // while events are pending, and cross-check the dispatch order
    // against a sorted reference.
    EventQueue eq;
    Rng rng(42);
    std::vector<std::pair<Tick, int>> expected;
    std::vector<int> fired;
    int next_tag = 0;
    for (int round = 0; round < 50; ++round) {
        const int burst = static_cast<int>(rng.below(40)) + 1;
        for (int i = 0; i < burst; ++i) {
            const Tick when = eq.now() + rng.below(500);
            const int tag = next_tag++;
            expected.emplace_back(when, tag);
            eq.schedule(when, [&fired, tag]() {
                fired.push_back(tag);
            });
        }
        const int steps = static_cast<int>(rng.below(30));
        for (int i = 0; i < steps; ++i)
            eq.step();
    }
    eq.run();
    // (tick, insertion order) — insertion index is the tag itself.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], expected[i].second) << "index " << i;
}

TEST(EventQueue, HandlesMoveOnlyCallbacks)
{
    EventQueue eq;
    auto p = std::make_unique<int>(99);
    int seen = 0;
    eq.schedule(1, [&seen, q = std::move(p)]() { seen = *q; });
    eq.run();
    EXPECT_EQ(seen, 99);
}

/**
 * Successors of one fired event in the differential test: 0 to 3 of
 * them, each 0, 1 or up to 999 ticks ahead. Both sides draw from
 * identically seeded generators, so the draws line up exactly as
 * long as the two dispatch orders agree.
 */
std::vector<Tick>
successorDeltas(Rng &rng)
{
    std::vector<Tick> deltas(rng.below(4));
    for (Tick &d : deltas) {
        const std::uint64_t kind = rng.below(3);
        d = kind == 0 ? 0 : kind == 1 ? 1 : rng.below(1000);
    }
    return deltas;
}

/** A fired event and the time it fired at. */
using Firing = std::pair<int, Tick>;

constexpr int diffSeeds = 64;
constexpr int diffEvents = 20000;

/** The differential test's model run on the real kernel. */
struct KernelSide
{
    EventQueue eq;
    Rng rng{0xd1ff};
    std::vector<Firing> fired;
    int nextId = 0;

    struct Handler
    {
        KernelSide *side;
        int id;
        void operator()() const { side->fire(id); }
    };

    void
    fire(int id)
    {
        fired.emplace_back(id, eq.now());
        for (const Tick d : successorDeltas(rng)) {
            if (nextId < diffEvents)
                eq.scheduleAfter(d, Handler{this, nextId++});
        }
    }

    std::vector<Firing>
    run()
    {
        for (int i = 0; i < diffSeeds; ++i)
            eq.schedule(rng.below(100), Handler{this, nextId++});
        eq.run();
        return fired;
    }
};

/** The same model on a reference queue ordered by (tick, seq). */
std::vector<Firing>
referenceRun()
{
    Rng rng(0xd1ff);
    std::set<std::tuple<Tick, std::uint64_t, int>> pending;
    std::uint64_t seq = 0;
    int next_id = 0;
    for (int i = 0; i < diffSeeds; ++i)
        pending.emplace(rng.below(100), seq++, next_id++);
    std::vector<Firing> fired;
    while (!pending.empty()) {
        const auto [now, s, id] = *pending.begin();
        pending.erase(pending.begin());
        fired.emplace_back(id, now);
        for (const Tick d : successorDeltas(rng)) {
            if (next_id < diffEvents)
                pending.emplace(now + d, seq++, next_id++);
        }
    }
    return fired;
}

TEST(EventQueue, MatchesReferenceOrderUnderHoldWorkload)
{
    // Handlers that schedule 0-3 successors exercise every kernel
    // path: the fused overwrite of the running event's node (first
    // successor), plain pushes (later ones) and the pop after a
    // handler that schedules nothing. The population grows to the
    // event cap and then drains.
    KernelSide kernel;
    const std::vector<Firing> got = kernel.run();
    const std::vector<Firing> want = referenceRun();
    ASSERT_EQ(got.size(), static_cast<std::size_t>(diffEvents));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "dispatch " << i;
    }
    EXPECT_EQ(kernel.eq.dispatched(), want.size());
    EXPECT_TRUE(kernel.eq.empty());
}

TEST(EventQueue, SizeInsideHandlerCountsOnlyPendingEvents)
{
    EventQueue eq;
    std::vector<std::size_t> sizes;
    std::vector<bool> empties;
    auto probe = [&]() {
        sizes.push_back(eq.size());
        empties.push_back(eq.empty());
    };
    eq.schedule(10, [&]() {
        probe();                       // nothing else pending
        eq.scheduleAfter(5, [&]() {
            probe();                   // the event at 20 is pending
        });
        probe();                       // one successor
        eq.scheduleAfter(10, []() {});
        probe();                       // both successors
    });
    eq.run();
    EXPECT_EQ(sizes, (std::vector<std::size_t>{0, 1, 2, 1}));
    EXPECT_EQ(empties, (std::vector<bool>{true, false, false, false}));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);

    // With another event pending, the running one is still excluded.
    eq.schedule(100, [&]() { probe(); });
    eq.schedule(200, []() {});
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(sizes.back(), 1u);
    EXPECT_FALSE(empties.back());
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, RunUntilAfterHandlerThatSchedulesNothing)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(50, [&]() { ++fired; });
    EXPECT_FALSE(eq.runUntil(20));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_TRUE(eq.empty());

    // Budgeted: the budget runs out, then the limit stops the run,
    // then a single budgeted event drains the queue.
    eq.schedule(60, [&]() { ++fired; });
    eq.schedule(70, [&]() { ++fired; });
    eq.schedule(500, [&]() { ++fired; });
    EXPECT_EQ(eq.runUntil(100, 1), EventQueue::RunResult::Budget);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 60u);
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_EQ(eq.runUntil(100, 5), EventQueue::RunResult::Limited);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.runUntil(1000, 1), EventQueue::RunResult::Drained);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 500u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilAfterHandlerThatSchedulesPastLimit)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(10, [&]() {
        fired.push_back(eq.now());
        eq.scheduleAfter(30, [&]() { fired.push_back(eq.now()); });
    });
    EXPECT_FALSE(eq.runUntil(20));
    EXPECT_EQ(fired, (std::vector<Tick>{10}));
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_TRUE(eq.runUntil(40));
    EXPECT_EQ(fired, (std::vector<Tick>{10, 40}));
    EXPECT_EQ(eq.now(), 40u);

    fired.clear();
    eq.schedule(50, [&]() {
        fired.push_back(eq.now());
        eq.scheduleAfter(100, [&]() { fired.push_back(eq.now()); });
    });
    EXPECT_EQ(eq.runUntil(100, 10), EventQueue::RunResult::Limited);
    EXPECT_EQ(fired, (std::vector<Tick>{50}));
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.runUntil(150, 10), EventQueue::RunResult::Drained);
    EXPECT_EQ(fired, (std::vector<Tick>{50, 150}));
}

TEST(EventQueue, ResetInsideHandlerLeavesAnEmptyQueue)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() {
        ++fired;
        eq.scheduleAfter(1, [&]() { ++fired; });
        eq.reset();
    });
    eq.schedule(20, [&]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.empty());
    eq.schedule(5, [&]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, StepInsideHandlerPanics)
{
    EventQueue eq;
    eq.schedule(1, [&]() { eq.step(); });
    EXPECT_DEATH(eq.run(), "inside a handler");
}

} // namespace
} // namespace umany
