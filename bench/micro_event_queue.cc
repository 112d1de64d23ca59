/**
 * @file
 * Microbenchmark of the simulation kernel: event scheduling and
 * dispatch throughput — the bound on overall simulator speed.
 *
 * Runs every pattern against the kernel (InlineFunction callbacks +
 * 4-ary index heap) with and without a SimProfiler attached. Reports
 * events/sec and allocations/event (via perfbench's global
 * operator-new counting hook, linked in by bench/CMakeLists.txt).
 */

#include "perfbench/alloc.hh"

#include <chrono>
#include <cstdio>

#include "obs/simprof.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/table.hh"

namespace umany::bench
{
namespace
{

/**
 * The kernel with a SimProfiler attached: measures what
 * --sim-profile costs on the pure kernel hot path (the worst case —
 * real runs spend most time in callbacks, not the kernel).
 */
class ProfiledEventQueue
{
  public:
    ProfiledEventQueue() { eq_.setProfiler(&prof_); }

    void
    schedule(Tick when, EventQueue::Callback cb)
    {
        eq_.schedule(when, std::move(cb));
    }

    void
    scheduleAfter(Tick delta, EventQueue::Callback cb)
    {
        eq_.scheduleAfter(delta, std::move(cb));
    }

    std::uint64_t dispatched() const { return eq_.dispatched(); }

    void
    run()
    {
        eq_.run();
        prof_.finalize();
    }

  private:
    EventQueue eq_;
    SimProfiler prof_;
};

/**
 * A capture shape representative of the simulator's events: a this
 * pointer, a request pointer, and two ids (see arch/machine.cc) —
 * small enough for the inline buffer, too big for libstdc++'s
 * std::function SBO.
 */
struct Payload
{
    void *a;
    void *b;
    std::uint64_t x;
    std::uint64_t y;
};

std::uint64_t sinkValue;

template <typename Queue>
void
fifoPattern(Queue &eq, std::int64_t n)
{
    Payload p{&eq, &sinkValue, 1, 2};
    for (std::int64_t i = 0; i < n; ++i) {
        eq.schedule(static_cast<Tick>(i),
                    [p]() { sinkValue += p.x; });
    }
    eq.run();
}

template <typename Queue>
void
randomPattern(Queue &eq, std::int64_t n)
{
    Rng rng(1);
    Payload p{&eq, &sinkValue, 3, 4};
    for (std::int64_t i = 0; i < n; ++i) {
        eq.schedule(rng.below(1000000),
                    [p]() { sinkValue += p.y; });
    }
    eq.run();
}

/**
 * The common simulator pattern: one event chain rescheduling itself
 * (e.g. a load generator). The continuation is a self-referencing
 * struct so both kernel variants run the identical shape.
 */
template <typename Queue>
void
chainPattern(Queue &eq, std::int64_t n)
{
    struct Chain
    {
        Queue &eq;
        std::int64_t left;
        void
        operator()()
        {
            if (--left > 0)
                eq.scheduleAfter(10, Chain{eq, left});
        }
    };
    eq.schedule(0, Chain{eq, n});
    eq.run();
}

struct Measurement
{
    double eventsPerSec = 0.0;
    double allocsPerEvent = 0.0;
};

template <typename Queue, typename Fn>
Measurement
measure(Fn &&pattern, std::int64_t n)
{
    using clock = std::chrono::steady_clock;
    constexpr double minSeconds = 0.25;
    // Warm up once (pulls the pattern's code and the allocator's
    // arenas in) before the timed repetitions.
    {
        Queue eq;
        pattern(eq, n);
    }
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    double elapsed = 0.0;
    while (elapsed < minSeconds) {
        Queue eq;
        const std::uint64_t a0 = pb::allocsNow();
        const auto t0 = clock::now();
        pattern(eq, n);
        const auto t1 = clock::now();
        allocs += pb::allocsNow() - a0;
        elapsed += std::chrono::duration<double>(t1 - t0).count();
        events += eq.dispatched();
    }
    Measurement m;
    m.eventsPerSec = static_cast<double>(events) / elapsed;
    m.allocsPerEvent = static_cast<double>(allocs) /
                       static_cast<double>(events);
    return m;
}

struct PatternRow
{
    const char *name;
    Measurement plain;
    Measurement profiled;
};

} // namespace
} // namespace umany::bench

int
main()
{
    using namespace umany;
    using namespace umany::bench;

    constexpr std::int64_t n = 65536;
    constexpr std::int64_t chain = 100000;

    PatternRow rows[] = {
        {"schedule+drain (64k, fifo)",
         measure<EventQueue>(
             [](auto &eq, std::int64_t c) { fifoPattern(eq, c); }, n),
         measure<ProfiledEventQueue>(
             [](auto &eq, std::int64_t c) { fifoPattern(eq, c); },
             n)},
        {"random-order dispatch (64k)",
         measure<EventQueue>(
             [](auto &eq, std::int64_t c) { randomPattern(eq, c); },
             n),
         measure<ProfiledEventQueue>(
             [](auto &eq, std::int64_t c) { randomPattern(eq, c); },
             n)},
        {"self-rescheduling chain (100k)",
         measure<EventQueue>(
             [](auto &eq, std::int64_t c) { chainPattern(eq, c); },
             chain),
         measure<ProfiledEventQueue>(
             [](auto &eq, std::int64_t c) { chainPattern(eq, c); },
             chain)},
    };

    Table t({"pattern", "kernel", "events/sec", "allocs/event"});
    for (const PatternRow &r : rows) {
        t.addRow({r.name, "inline+4ary",
                  Table::num(r.plain.eventsPerSec, 0),
                  Table::num(r.plain.allocsPerEvent, 3)});
        t.addRow({r.name, "inline+4ary + sim-profile",
                  Table::num(r.profiled.eventsPerSec, 0),
                  Table::num(r.profiled.allocsPerEvent, 3)});
    }
    std::printf("%s\n", t.format().c_str());

    // Self-profiling overhead on the pure kernel path. Real runs
    // spend most host time inside event callbacks, so end-to-end
    // overhead is smaller than these worst-case numbers
    // (tests/test_simprof.cc pins the end-to-end median
    // profiled/plain time ratio below 1.25).
    std::printf("sim-profile kernel overhead:");
    for (const PatternRow &r : rows) {
        const double over =
            r.profiled.eventsPerSec > 0.0
                ? r.plain.eventsPerSec / r.profiled.eventsPerSec -
                      1.0
                : 0.0;
        std::printf("  %s: %+.1f%%", r.name, over * 100.0);
    }
    std::printf("\n");
    return 0;
}
