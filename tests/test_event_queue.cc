/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <tuple>
#include <type_traits>
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

TEST(EventQueue, CountsDispatchedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Tick>(i), []() {});
    eq.run();
    EXPECT_EQ(eq.dispatched(), 5u);
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
 * A differential run's shape: how many events start pending, how
 * many fire in all, and how many successors (0 to maxSuccessors - 1)
 * each fired event may schedule.
 */
struct HoldShape
{
    int seeds;
    int events;
    std::uint64_t maxSuccessors;
};

/**
 * Successors of one fired event in the differential test, each 0, 1
 * or up to 999 ticks ahead. Both sides draw from identically seeded
 * generators, so the draws line up exactly as long as the two
 * dispatch orders agree.
 */
std::vector<Tick>
successorDeltas(Rng &rng, const HoldShape &shape)
{
    std::vector<Tick> deltas(rng.below(shape.maxSuccessors));
    for (Tick &d : deltas) {
        const std::uint64_t kind = rng.below(3);
        d = kind == 0 ? 0 : kind == 1 ? 1 : rng.below(1000);
    }
    return deltas;
}

/** A fired event and the time it fired at. */
using Firing = std::pair<int, Tick>;

/** The differential test's model run on the real kernel. */
struct KernelSide
{
    explicit KernelSide(const HoldShape &s) : shape(s) {}

    HoldShape shape;
    EventQueue eq;
    Rng rng{0xd1ff};
    std::vector<Firing> fired;
    int nextId = 0;
    std::size_t maxPending = 0;

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
        for (const Tick d : successorDeltas(rng, shape)) {
            if (nextId < shape.events)
                eq.scheduleAfter(d, Handler{this, nextId++});
        }
        maxPending = std::max(maxPending, eq.size());
    }

    std::vector<Firing>
    run()
    {
        for (int i = 0; i < shape.seeds; ++i)
            eq.schedule(rng.below(100), Handler{this, nextId++});
        eq.run();
        return fired;
    }
};

/** The same model on a reference queue ordered by (tick, seq). */
std::vector<Firing>
referenceRun(const HoldShape &shape)
{
    Rng rng(0xd1ff);
    std::set<std::tuple<Tick, std::uint64_t, int>> pending;
    std::uint64_t seq = 0;
    int next_id = 0;
    for (int i = 0; i < shape.seeds; ++i)
        pending.emplace(rng.below(100), seq++, next_id++);
    std::vector<Firing> fired;
    while (!pending.empty()) {
        const auto [now, s, id] = *pending.begin();
        pending.erase(pending.begin());
        fired.emplace_back(id, now);
        for (const Tick d : successorDeltas(rng, shape)) {
            if (next_id < shape.events)
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
    // handler that schedules nothing. The first shape grows to the
    // event cap and then drains; the second holds about 5,000
    // events pending (0-2 successors, one on average), so the heap
    // outgrows its initial capacity several times.
    for (const HoldShape shape :
         {HoldShape{64, 20000, 4}, HoldShape{5000, 60000, 3}}) {
        KernelSide kernel(shape);
        const std::vector<Firing> got = kernel.run();
        const std::vector<Firing> want = referenceRun(shape);
        ASSERT_EQ(got.size(), static_cast<std::size_t>(shape.events));
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << shape.seeds << " seeds, dispatch " << i;
        }
        EXPECT_EQ(kernel.eq.dispatched(), want.size());
        EXPECT_TRUE(kernel.eq.empty());
        // Every seed but the running one was pending at the first
        // dispatch.
        EXPECT_GE(kernel.maxPending,
                  static_cast<std::size_t>(shape.seeds) - 1);
    }
}

/**
 * A capture of trivially copyable data that fills most of the inline
 * buffer, so a relocation that copied too few bytes would lose its
 * tail.
 */
struct WideCapture
{
    std::vector<int> *log;
    std::array<int, 12> words;

    void
    operator()() const
    {
        for (const int w : words)
            log->push_back(w);
    }
};

/** A capture that counts its runs and the drops of its live copy. */
struct CountedCapture
{
    int *runs;
    int *drops;
    bool live = true;

    CountedCapture(int *r, int *d) : runs(r), drops(d) {}
    CountedCapture(CountedCapture &&other) noexcept
        : runs(other.runs), drops(other.drops)
    {
        other.live = false;
    }
    CountedCapture(const CountedCapture &) = delete;
    ~CountedCapture()
    {
        if (live)
            ++*drops;
    }

    void operator()() const { ++*runs; }
};

TEST(EventQueue, CallbacksPassThroughTheSlabIntact)
{
    static_assert(std::is_trivially_copyable_v<WideCapture>);
    static_assert(EventQueue::Callback::fitsInline<WideCapture>());
    static_assert(!std::is_trivially_copyable_v<CountedCapture>);
    // Both shapes share the slab: slots freed by one kind are
    // refilled by the other, across several waves of pending events.
    EventQueue eq;
    std::vector<int> log;
    int runs = 0;
    int drops = 0;
    constexpr int waves = 4;
    constexpr int perWave = 300;
    for (int wave = 0; wave < waves; ++wave) {
        for (int i = 0; i < perWave; ++i) {
            const Tick when = eq.now() + static_cast<Tick>(i % 7);
            if (i % 2 == 0) {
                WideCapture c{&log, {}};
                for (std::size_t w = 0; w < c.words.size(); ++w)
                    c.words[w] = i * 100 + static_cast<int>(w);
                eq.schedule(when, c);
            } else {
                eq.schedule(when, CountedCapture{&runs, &drops});
            }
        }
        eq.run();
    }
    EXPECT_EQ(runs, waves * perWave / 2);
    EXPECT_EQ(drops, runs);
    // Every wide capture ran once, with all twelve words.
    ASSERT_EQ(log.size(), static_cast<std::size_t>(waves * perWave / 2 * 12));
    std::vector<int> starts;
    for (std::size_t k = 0; k < log.size(); k += 12) {
        for (int w = 0; w < 12; ++w)
            ASSERT_EQ(log[k + static_cast<std::size_t>(w)], log[k] + w);
        starts.push_back(log[k]);
    }
    std::sort(starts.begin(), starts.end());
    for (std::size_t k = 0; k < starts.size(); ++k) {
        const int i = static_cast<int>(k / waves) * 2;
        EXPECT_EQ(starts[k], i * 100) << k;
    }
}

TEST(EventQueue, DestroysPendingCallbacksOnce)
{
    int runs = 0;
    int drops = 0;
    {
        EventQueue eq;
        for (int i = 0; i < 40; ++i)
            eq.schedule(static_cast<Tick>(i), CountedCapture{&runs, &drops});
        EXPECT_TRUE(eq.step());
        EXPECT_EQ(drops, 1);
    }
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(drops, 40);
}

TEST(EventQueue, EventsAtTheLastTickRunInOrder)
{
    // Unused heap slots hold an all-ones sentinel; real events at
    // the largest tick must still sort before it.
    EventQueue eq;
    const Tick last = ~Tick{0};
    std::vector<int> order;
    for (int i = 0; i < 6; ++i)
        eq.schedule(last, [&order, i]() { order.push_back(i); });
    eq.schedule(last - 1, [&order]() { order.push_back(-1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), last);
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

TEST(EventQueue, StepInsideHandlerPanics)
{
    EventQueue eq;
    eq.schedule(1, [&]() { eq.step(); });
    EXPECT_DEATH(eq.run(), "inside a handler");
}

} // namespace
} // namespace umany
