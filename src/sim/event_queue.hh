/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue owns simulated time. Components schedule
 * callbacks at absolute or relative ticks; the queue dispatches them
 * in (tick, insertion-order) order, which makes runs deterministic
 * for a fixed seed and schedule.
 *
 * Hot-path layout: callbacks are InlineFunction (no heap allocation
 * for the common capture shapes) stored in a slab whose freed slots
 * are recycled, and ordering is an open 4-ary heap of 24-byte
 * (tick, seq, slot) nodes over a reserved vector — sift operations
 * move small nodes and compare without touching the slab. Every
 * container keeps its capacity across reset() so repeated runs in
 * one process do not re-warm the allocator.
 */

#ifndef UMANY_SIM_EVENT_QUEUE_HH
#define UMANY_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/ev_source.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace umany
{

class SimProfiler;

/**
 * The event queue at the heart of the simulator.
 *
 * Events are arbitrary callables. Ties at the same tick are broken
 * by insertion order so behaviour is reproducible.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void()>;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must be >= now().
     * @param tag Event-source tag carried in the heap node; free
     *        when no profiler is attached.
     * @param cb Callback to invoke.
     */
    void schedule(Tick when, EvTag tag, Callback cb);

    /** Untagged schedule: the event is attributed to EvSrc::Other. */
    void
    schedule(Tick when, Callback cb)
    {
        schedule(when, EvTag{}, std::move(cb));
    }

    /** Schedule a tagged callback @p delta ticks in the future. */
    void
    scheduleAfter(Tick delta, EvTag tag, Callback cb)
    {
        schedule(now() + delta, tag, std::move(cb));
    }

    /** Schedule a callback @p delta ticks in the future. */
    void
    scheduleAfter(Tick delta, Callback cb)
    {
        schedule(now() + delta, EvTag{}, std::move(cb));
    }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Total events dispatched. */
    std::uint64_t dispatched() const { return dispatched_; }

    /** Run until the queue drains. */
    void run();

    /**
     * Run until the queue drains or simulated time would pass
     * @p limit. Events scheduled at exactly @p limit still run.
     *
     * @return true if the queue drained, false if the limit stopped
     *         the run first (remaining events stay queued).
     */
    bool runUntil(Tick limit);

    /** Outcome of a budgeted runUntil(). */
    enum class RunResult : std::uint8_t
    {
        Drained,  //!< No events remain.
        Limited,  //!< Simulated time reached @p limit.
        Budget,   //!< The event budget ran out first.
    };

    /**
     * runUntil() with an event budget: dispatch at most
     * @p max_events events. Lets a driver interleave host-side work
     * (progress heartbeats) with the run without per-event cost.
     * Unlike the Limited case, Budget leaves now() at the last
     * dispatched event's tick.
     */
    RunResult runUntil(Tick limit, std::uint64_t max_events);

    /**
     * Attach a self-profiler (null detaches). While attached, every
     * schedule/dispatch is accounted to the event's source tag; when
     * detached the kernel pays one branch per operation.
     */
    void setProfiler(SimProfiler *prof) { prof_ = prof; }

    /** Dispatch a single event. @return false if queue was empty. */
    bool step();

    /**
     * Drop all pending events and reset time to zero. Allocated
     * capacity is retained (capacity() is unchanged).
     */
    void reset();

    /** Grow the reserved capacity to at least @p events. */
    void reserve(std::size_t events);

    /** Events the queue can hold before reallocating (diagnostic). */
    std::size_t capacity() const { return slab_.capacity(); }

  private:
    /**
     * Heap node: the full sort key plus the slab slot of the
     * callback. Comparisons and sifts never dereference the slab.
     * The event-source tag rides in what used to be struct padding,
     * so the node stays 24 bytes.
     */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        EvSrc src;
    };
    static_assert(sizeof(Node) == 24,
                  "event tags must fit in the node's padding");

    static bool
    before(const Node &a, const Node &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Index of the earliest-firing event's slab slot + key. */
    Node popTop();

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    static constexpr std::size_t arity = 4;
    static constexpr std::size_t initialCapacity = 256;

    std::vector<Callback> slab_;        //!< Callback storage.
    std::vector<std::uint32_t> free_;   //!< Recycled slab slots.
    std::vector<Node> heap_;            //!< 4-ary min-heap.
    Tick _now = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    SimProfiler *prof_ = nullptr;
};

} // namespace umany

#endif // UMANY_SIM_EVENT_QUEUE_HH
