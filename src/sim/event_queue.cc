#include "sim/event_queue.hh"

#include "obs/simprof.hh"
#include "sim/logging.hh"

namespace umany
{

EventQueue::EventQueue()
{
    slab_.reserve(initialCapacity);
    free_.reserve(initialCapacity);
    heap_.reserve(initialCapacity);
}

void
EventQueue::reserve(std::size_t events)
{
    slab_.reserve(events);
    free_.reserve(events);
    heap_.reserve(events);
}

void
EventQueue::schedule(Tick when, EvTag tag, Callback cb)
{
    if (when < _now) {
        panic("event scheduled in the past: when=%llu now=%llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    }
    if (prof_ != nullptr)
        prof_->onSchedule(tag, when - _now);
    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
        slab_[slot] = std::move(cb);
    } else {
        slot = static_cast<std::uint32_t>(slab_.size());
        slab_.push_back(std::move(cb));
    }
    const Node n{when, nextSeq_++, slot, tag.src};
    if (held_) {
        // The running event's node is still the root: replace it.
        // Successors are often due soon, and then the sift stops
        // at once.
        held_ = false;
        heap_.front() = n;
        siftDown(0);
    } else {
        heap_.push_back(n);
        siftUp(heap_.size() - 1);
    }
}

void
EventQueue::siftUp(std::size_t i)
{
    const Node n = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / arity;
        if (!before(n, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = n;
}

std::size_t
EventQueue::minChild(std::size_t i, std::size_t count) const
{
    const std::size_t first = i * arity + 1;
    if (first >= count)
        return count;
    const std::size_t last =
        first + arity < count ? first + arity : count;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best]))
            best = c;
    }
    return best;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t count = heap_.size();
    const Node n = heap_[i];
    for (;;) {
        const std::size_t c = minChild(i, count);
        if (c == count || !before(heap_[c], n))
            break;
        heap_[i] = heap_[c];
        i = c;
    }
    heap_[i] = n;
}

void
EventQueue::popRoot()
{
    // Bottom-up: the last node is usually a far-future event, so sink
    // the hole along the earliest children without comparing against
    // it, then refill the hole with the last node and sift that up.
    const Node last = heap_.back();
    heap_.pop_back();
    const std::size_t count = heap_.size();
    if (count == 0)
        return;
    std::size_t i = 0;
    for (std::size_t c; (c = minChild(i, count)) < count; i = c)
        heap_[i] = heap_[c];
    heap_[i] = last;
    siftUp(i);
}

bool
EventQueue::step()
{
    if (held_)
        panic("EventQueue::step() called from inside a handler");
    if (heap_.empty())
        return false;
    const Node top = heap_.front();
    // Move the callback out before invoking: the callback may
    // schedule new events and grow the slab, and its slot must be
    // reusable by those insertions.
    Callback cb = std::move(slab_[top.slot]);
    free_.push_back(top.slot);
    _now = top.when;
    ++dispatched_;
    held_ = true;
    cb();
    if (held_) {
        // The handler scheduled nothing (and did not reset()).
        held_ = false;
        popRoot();
    }
    if (prof_ != nullptr)
        prof_->onExecuted(EvTag{top.src}, heap_.size(), _now);
    return true;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

bool
EventQueue::runUntil(Tick limit)
{
    while (!heap_.empty()) {
        if (heap_.front().when > limit) {
            _now = limit;
            return false;
        }
        step();
    }
    return true;
}

EventQueue::RunResult
EventQueue::runUntil(Tick limit, std::uint64_t max_events)
{
    while (!heap_.empty()) {
        if (heap_.front().when > limit) {
            _now = limit;
            return RunResult::Limited;
        }
        if (max_events == 0)
            return RunResult::Budget;
        --max_events;
        step();
    }
    return RunResult::Drained;
}

void
EventQueue::reset()
{
    // clear(), not reassignment: capacity stays warm for the next
    // run in this process.
    heap_.clear();
    slab_.clear();
    free_.clear();
    held_ = false;
    _now = 0;
    nextSeq_ = 0;
    dispatched_ = 0;
}

} // namespace umany
