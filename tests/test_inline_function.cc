/**
 * @file
 * Unit tests for the small-buffer callable used by the kernel:
 * inline vs heap storage at the SBO boundary, move-only captures,
 * move semantics, and the no-allocation guarantee for the common
 * event capture shapes.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>

#include "sim/inline_function.hh"

namespace umany
{
namespace
{

using Fn = InlineFunction<void()>;
using IntFn = InlineFunction<int(int)>;

TEST(InlineFunction, DefaultIsEmpty)
{
    Fn f;
    EXPECT_FALSE(static_cast<bool>(f));
    Fn g = nullptr;
    EXPECT_FALSE(static_cast<bool>(g));
}

TEST(InlineFunction, InvokesAndReturns)
{
    IntFn f = [](int x) { return x * 2; };
    EXPECT_TRUE(static_cast<bool>(f));
    EXPECT_EQ(f(21), 42);
}

TEST(InlineFunction, CaptureAtTheBoundaryStaysInline)
{
    // 64 bytes of capture: exactly the inline buffer.
    struct Exactly64
    {
        std::array<std::uint8_t, 64> bytes;
    };
    static_assert(sizeof(Exactly64) == 64);

    Exactly64 data{};
    data.bytes[0] = 7;
    data.bytes[63] = 9;
    auto lambda = [data]() {
        ASSERT_EQ(data.bytes[0], 7);
        ASSERT_EQ(data.bytes[63], 9);
    };
    static_assert(sizeof(lambda) == 64);
    static_assert(Fn::fitsInline<decltype(lambda)>());

    const std::uint64_t before = Fn::heapAllocations();
    Fn f = lambda;
    EXPECT_EQ(Fn::heapAllocations(), before);
    f();
}

TEST(InlineFunction, CaptureOverTheBoundaryFallsBackToHeap)
{
    struct Over
    {
        std::array<std::uint8_t, 65> bytes;
    };
    auto lambda = [big = Over{}]() mutable { big.bytes[64] = 1; };
    static_assert(sizeof(lambda) > 64);
    static_assert(!Fn::fitsInline<decltype(lambda)>());

    const std::uint64_t before = Fn::heapAllocations();
    Fn f = std::move(lambda);
    EXPECT_EQ(Fn::heapAllocations(), before + 1);
    f(); // heap target must still invoke correctly
}

TEST(InlineFunction, CommonEventShapesDoNotAllocate)
{
    // The simulator's dominant shapes (see arch/machine.cc,
    // arch/cluster_sim.cc): this + request pointer + a couple of
    // ids, and a shared_ptr flight + this (noc/network.cc). All
    // must stay inline.
    int target = 0;
    void *self = &target;
    std::uint64_t id1 = 1, id2 = 2, id3 = 3;
    auto flight = std::make_shared<int>(5);

    const std::uint64_t before = Fn::heapAllocations();
    Fn a = [&target]() { ++target; };
    Fn b = [self, &target, id1, id2, id3]() {
        if (self != nullptr)
            target += static_cast<int>(id1 + id2 + id3);
    };
    Fn c = [&target, f = std::move(flight)]() { target += *f; };
    EXPECT_EQ(Fn::heapAllocations(), before);
    a();
    b();
    c();
    EXPECT_EQ(target, 12);
}

TEST(InlineFunction, MoveOnlyCapturesAccepted)
{
    // std::function rejects these at compile time; the kernel's
    // callable must not.
    auto p = std::make_unique<int>(11);
    Fn f = [q = std::move(p)]() { ASSERT_EQ(*q, 11); };
    f();
}

TEST(InlineFunction, MoveTransfersTargetAndEmptiesSource)
{
    int calls = 0;
    Fn a = [&calls]() { ++calls; };
    Fn b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);

    Fn c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(calls, 2);
}

TEST(InlineFunction, MoveOfHeapTargetTransfersOwnership)
{
    struct Big
    {
        std::array<std::uint8_t, 128> pad{};
        std::shared_ptr<int> counter;
    };
    auto counter = std::make_shared<int>(0);
    Fn a = [big = Big{{}, counter}]() { ++*big.counter; };
    EXPECT_EQ(counter.use_count(), 2);
    Fn b = std::move(a);
    // Ownership moved with the pointer: no copy of the target.
    EXPECT_EQ(counter.use_count(), 2);
    b();
    EXPECT_EQ(*counter, 1);
    b = Fn{};
    EXPECT_EQ(counter.use_count(), 1); // destroyed exactly once
}

TEST(InlineFunction, DestructorRunsCaptureDestructors)
{
    auto counter = std::make_shared<int>(0);
    {
        Fn f = [counter]() { ++*counter; };
        EXPECT_EQ(counter.use_count(), 2);
    }
    EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFunction, AssignmentDestroysPreviousTarget)
{
    auto first = std::make_shared<int>(1);
    auto second = std::make_shared<int>(2);
    Fn f = [first]() {};
    f = Fn{[second]() {}};
    EXPECT_EQ(first.use_count(), 1);
    EXPECT_EQ(second.use_count(), 2);
}

TEST(InlineFunction, TrivialTargetKeepsEveryByteAcrossMoves)
{
    // A trivially copyable target relocates by copying its own size;
    // a 64-byte one must arrive whole after moves and assignments.
    std::array<std::uint8_t, 64> bytes{};
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 3 + 1);
    int sum = 0;
    auto lambda = [bytes, &sum]() mutable {
        for (const std::uint8_t b : bytes)
            sum += b;
    };
    static_assert(!Fn::fitsInline<decltype(lambda)>());
    auto fits = [bytes]() {
        for (std::size_t i = 0; i < bytes.size(); ++i)
            ASSERT_EQ(bytes[i], static_cast<std::uint8_t>(i * 3 + 1));
    };
    static_assert(std::is_trivially_copyable_v<decltype(fits)>);
    static_assert(Fn::fitsInline<decltype(fits)>());

    Fn a = fits;
    Fn b = std::move(a);
    Fn c;
    c = std::move(b);
    Fn d = std::move(c);
    EXPECT_FALSE(static_cast<bool>(c));
    d();

    // An empty target has no bytes to copy, and moves too.
    IntFn e = [](int x) { return x + 1; };
    IntFn f = std::move(e);
    EXPECT_EQ(f(41), 42);

    // Over the buffer: heap storage, whose pointer moves as bytes.
    Fn g = std::move(lambda);
    Fn h = std::move(g);
    h();
    EXPECT_EQ(sum, 64 * 63 / 2 * 3 + 64);
}

TEST(InlineFunction, CountedTargetRunsAndDiesOnceAcrossMoves)
{
    // A capture with a destructor still moves through its own move
    // constructor: across moves, an assignment over it and the final
    // drop, exactly one live copy is destroyed, once.
    struct Counted
    {
        int *runs;
        int *drops;
        bool live = true;

        Counted(int *r, int *d) : runs(r), drops(d) {}
        Counted(Counted &&o) noexcept : runs(o.runs), drops(o.drops)
        {
            o.live = false;
        }
        ~Counted()
        {
            if (live)
                ++*drops;
        }
        void operator()() { ++*runs; }
    };
    static_assert(Fn::fitsInline<Counted>());
    int runs = 0;
    int drops = 0;
    {
        Fn a = Counted{&runs, &drops};
        Fn b = std::move(a);
        Fn c;
        c = std::move(b);
        EXPECT_EQ(drops, 0);
        c();
        c = Fn{[]() {}}; // drops the counted target
        EXPECT_EQ(drops, 1);
    }
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(drops, 1);
}

TEST(InlineFunction, WrapsStdFunctionLvalue)
{
    // Call sites like machine.cc's outboundRequest pass a
    // std::function lvalue through; wrapping copies it inline.
    int calls = 0;
    std::function<void()> fn = [&calls]() { ++calls; };
    static_assert(Fn::fitsInline<std::function<void()> &>());
    Fn f = fn;
    f();
    fn();
    EXPECT_EQ(calls, 2);
}

} // namespace
} // namespace umany
