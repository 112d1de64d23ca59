/**
 * @file
 * Microbenchmark of the simulation kernel: event scheduling and
 * dispatch throughput — the bound on overall simulator speed.
 *
 * Runs every pattern against the kernel (InlineFunction callbacks +
 * 4-ary index heap) with and without a SimProfiler attached, timing
 * the plain and profiled kernels alternately five times each.
 * Reports the median events/sec and allocations/event (via
 * perfbench's global operator-new counting hook, linked in by
 * bench/CMakeLists.txt), and the profiler's overhead as the median
 * and range over the five pairs.
 */

#include "perfbench/alloc.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "obs/simprof.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/cdf.hh"
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

/** Pending events in the hold model: um_15k's median queue depth. */
constexpr std::int64_t holdDepth = 735;

/**
 * The classic hold model: holdDepth events pending, and each one
 * that fires schedules one successor a random 1-1000 ticks ahead
 * until @p n have fired. Every dispatch is a fused hold: the
 * successor replaces the running event's node at the heap root.
 */
template <typename Queue>
void
holdPattern(Queue &eq, std::int64_t n)
{
    struct Hold
    {
        Queue &eq;
        Rng &rng;
        std::int64_t &left;
        void
        operator()() const
        {
            if (left <= 0)
                return;
            --left;
            eq.scheduleAfter(1 + rng.below(1000), Hold{*this});
        }
    };
    Rng rng(5);
    std::int64_t left = n;
    for (std::int64_t i = 0; i < holdDepth; ++i)
        eq.schedule(rng.below(1000), Hold{eq, rng, left});
    eq.run();
}

/**
 * um_15k's successor delays: the exact schedule horizons of the
 * perfbench slice's 772,112 schedules. The eight most common cover
 * 59% of them; the first is one leaf-spine hop, 5 cycles at 2 GHz.
 */
struct DelayShare
{
    Tick delay;
    double share;
};
constexpr DelayShare um15kDelays[] = {
    {2500, 0.270},   {258500, 0.087}, {50000, 0.062},
    {622560, 0.043}, {72000, 0.035},  {73440, 0.035},
    {6146500, 0.035}, {8000, 0.027},
};

/**
 * 64k delays drawn from um_15k's mix. The other 41% are drawn
 * log-uniformly between 10 ns and 1 ms (um_15k's own rest has p10,
 * p50 and p90 of 15 ns, 2.1 us and 281 us). Drawn once, so the timed
 * loop reads a table instead of calling pow().
 */
const std::vector<Tick> &
um15kDelayTable()
{
    static const std::vector<Tick> table = [] {
        Rng rng(7);
        std::vector<Tick> out(std::size_t{1} << 16);
        for (Tick &d : out) {
            double u = rng.uniform();
            d = 0;
            for (const DelayShare &s : um15kDelays) {
                if (u < s.share) {
                    d = s.delay;
                    break;
                }
                u -= s.share;
            }
            if (d == 0) {
                d = static_cast<Tick>(10.0 * tickPerNs *
                                      std::pow(1e5, rng.uniform()));
            }
        }
        return out;
    }();
    return table;
}

/**
 * The hold model with um_15k's delay mix instead of uniform 1-1000
 * ticks: a quarter of successors land one hop ahead, near the root,
 * where the fused hold's sift stops at once, and the rest spread
 * over six decades. The uniform hold cannot see that shape.
 */
template <typename Queue>
void
um15kHoldPattern(Queue &eq, std::int64_t n)
{
    const std::vector<Tick> &delays = um15kDelayTable();
    struct Hold
    {
        Queue &eq;
        const std::vector<Tick> &delays;
        std::size_t &next;
        std::int64_t &left;
        void
        operator()() const
        {
            if (left <= 0)
                return;
            --left;
            eq.scheduleAfter(delays[next++ & (delays.size() - 1)],
                             Hold{*this});
        }
    };
    std::size_t next = 0;
    std::int64_t left = n;
    for (std::int64_t i = 0; i < holdDepth; ++i)
        eq.schedule(delays[next++], Hold{eq, delays, next, left});
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
    constexpr double minSeconds = 0.1;
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

/** Plain and profiled runs of one pattern, timed alternately. */
struct PatternRow
{
    const char *name;
    std::vector<Measurement> plain;
    std::vector<Measurement> profiled;
};

constexpr int pairs = 5;

template <typename Fn>
PatternRow
measurePairs(const char *name, Fn &&pattern, std::int64_t n)
{
    PatternRow row{name, {}, {}};
    for (int i = 0; i < pairs; ++i) {
        row.plain.push_back(measure<EventQueue>(pattern, n));
        row.profiled.push_back(measure<ProfiledEventQueue>(pattern, n));
    }
    return row;
}

/** Median of one field over @p runs. */
double
medianOf(const std::vector<Measurement> &runs,
         double Measurement::*field)
{
    Cdf cdf;
    for (const Measurement &m : runs)
        cdf.add(m.*field);
    return cdf.quantile(0.5);
}

} // namespace
} // namespace umany::bench

int
main()
{
    using namespace umany;
    using namespace umany::bench;

    constexpr std::int64_t n = 65536;
    constexpr std::int64_t chain = 100000;
    constexpr std::int64_t hold = 200000;

    const PatternRow rows[] = {
        measurePairs(
            "schedule+drain (64k, fifo)",
            [](auto &eq, std::int64_t c) { fifoPattern(eq, c); }, n),
        measurePairs(
            "random-order dispatch (64k)",
            [](auto &eq, std::int64_t c) { randomPattern(eq, c); }, n),
        measurePairs(
            "self-rescheduling chain (100k)",
            [](auto &eq, std::int64_t c) { chainPattern(eq, c); },
            chain),
        measurePairs(
            "hold model (735 pending, 200k)",
            [](auto &eq, std::int64_t c) { holdPattern(eq, c); }, hold),
        measurePairs(
            "um_15k delay mix (735 pending, 200k)",
            [](auto &eq, std::int64_t c) { um15kHoldPattern(eq, c); },
            hold),
    };

    Table t({"pattern", "kernel", "events/sec", "allocs/event"});
    const auto add = [&t](const char *name, const char *kernel,
                          const std::vector<Measurement> &runs) {
        const double eps = medianOf(runs, &Measurement::eventsPerSec);
        const double ape = medianOf(runs, &Measurement::allocsPerEvent);
        t.addRow({name, kernel, Table::num(eps, 0), Table::num(ape, 3)});
    };
    for (const PatternRow &r : rows) {
        add(r.name, "inline+4ary", r.plain);
        add(r.name, "inline+4ary + sim-profile", r.profiled);
    }
    std::printf("medians of %d alternating plain/profiled runs\n%s\n",
                pairs, t.format().c_str());

    // Self-profiling overhead on the pure kernel path, per pair of
    // back-to-back runs. Real runs spend most host time inside event
    // callbacks, so end-to-end overhead is smaller than these
    // worst-case numbers (tests/test_simprof.cc pins the end-to-end
    // median profiled/plain time ratio below 1.25).
    std::printf("sim-profile kernel overhead, median [min, max] over "
                "%d pairs:\n",
                pairs);
    for (const PatternRow &r : rows) {
        Cdf over;
        for (int i = 0; i < pairs; ++i) {
            over.add(100.0 * (r.plain[i].eventsPerSec /
                                  r.profiled[i].eventsPerSec -
                              1.0));
        }
        std::printf("  %s: %+.1f%% [%+.1f%%, %+.1f%%]\n", r.name,
                    over.quantile(0.5), over.min(), over.max());
    }
    return 0;
}
