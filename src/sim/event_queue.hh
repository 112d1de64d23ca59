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
 * for the common capture shapes) stored with their event-source tag
 * in a slab whose freed slots are recycled. Ordering is an open
 * 4-ary heap of 16-byte nodes: the tick, then seq << 24 | slot.
 * Because seq is unique, comparing that second word breaks ties by
 * insertion order, and sift operations move small nodes and compare
 * without touching the slab. The root sits at offset 3 of a
 * 64-byte-aligned array, so every node's four children fill one
 * cache line; slots past the last node hold a sentinel that sorts
 * after every event, so the earliest child is picked without
 * branches.
 *
 * Fused hold: the running event's node stays at the heap root while
 * its handler runs. The handler's first schedule() overwrites the
 * root and sifts down once, so the common "fire, then schedule a
 * successor" step costs one sift instead of a pop and a push. A
 * handler that schedules nothing pays a bottom-up pop afterwards.
 * (tick, seq) is a total order, so the heap's shape never changes
 * which event runs next.
 */

#ifndef UMANY_SIM_EVENT_QUEUE_HH
#define UMANY_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <new>
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
     * Schedule a callback at an absolute tick. Panics past 2^24
     * pending events or 2^40 scheduled ones, the most a heap node's
     * key can name.
     *
     * @param when Absolute tick; must be >= now().
     * @param tag Event-source tag stored beside the callback; free
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

    /** True when no events remain (the running one is not counted). */
    bool empty() const { return size() == 0; }

    /** Number of pending events, not counting the running one. */
    std::size_t size() const { return count_ - (held_ ? 1 : 0); }

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

    /**
     * Dispatch a single event. Panics when called from inside a
     * handler, since the running event's node is still the root.
     *
     * @return false if queue was empty.
     */
    bool step();

  private:
    /**
     * Heap node: the full sort key. The second word is
     * seq << 24 | slot, so comparing (when, key) orders ties by
     * insertion and the slot names the callback without a lookup.
     */
    struct Node
    {
        Tick when;
        std::uint64_t key;
    };
    static_assert(sizeof(Node) == 16, "four nodes fill a cache line");

    /** Sorts after every event: no real key reaches all ones. */
    static constexpr Node sentinel{~Tick{0}, ~std::uint64_t{0}};

    static constexpr unsigned slotBits = 24;
    /** Slab slots fit the low 24 bits of a node's key. */
    static constexpr std::size_t maxPending = std::size_t{1} << slotBits;
    /** Sequence numbers fit the key's high 40 bits. */
    static constexpr std::uint64_t maxScheduled =
        std::uint64_t{1} << (64 - slotBits);

    static bool
    before(const Node &a, const Node &b)
    {
        // One compare-with-borrow over both words, without branches.
        using Key = unsigned __int128;
        return ((Key{a.when} << 64) | a.key) <
               ((Key{b.when} << 64) | b.key);
    }

    /** Index of the earliest of the four children at @p first. */
    std::size_t
    minChild(std::size_t first) const
    {
        const Node *c = heap_ + first;
        const std::size_t a = first + before(c[1], c[0]);
        const std::size_t b = first + 2 + before(c[3], c[2]);
        return before(heap_[b], heap_[a]) ? b : a;
    }

    void siftUp(std::size_t i);
    /**
     * Put @p n in the held root's place and sift it down. @p n is
     * passed by value so the sift compares it from a register
     * instead of waiting on a store to the root and a reload.
     */
    void replaceRoot(Node n);
    /** Remove the root: sink the hole to a leaf, refill, sift up. */
    void popRoot();
    /** Double the heap's capacity, keeping its nodes. */
    void grow();

    /** A slab slot: the callback and, in its padding, its tag. */
    struct Slot
    {
        [[no_unique_address]] Callback cb;
        EvSrc src = EvSrc::Other;
    };
    static_assert(sizeof(Slot) == sizeof(Callback),
                  "the tag must fit in the callback's tail padding");

    struct FreeLines
    {
        void
        operator()(Node *p) const noexcept
        {
            ::operator delete(p, std::align_val_t{64});
        }
    };

    static constexpr std::size_t initialCapacity = 256;

    std::vector<Slot> slab_;            //!< Callback storage.
    std::vector<std::uint32_t> free_;   //!< Recycled slab slots.
    /** 64-byte-aligned lines; the root is the fourth node. */
    std::unique_ptr<Node[], FreeLines> lines_;
    Node *heap_ = nullptr;              //!< 4-ary min-heap; root first.
    std::size_t count_ = 0;             //!< Nodes in the heap.
    /** Nodes heap_ can hold; the last three stay sentinels. */
    std::size_t capacity_ = 0;
    Tick _now = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    /** The root is the running event's node, free to overwrite. */
    bool held_ = false;
    SimProfiler *prof_ = nullptr;
};

} // namespace umany

#endif // UMANY_SIM_EVENT_QUEUE_HH
