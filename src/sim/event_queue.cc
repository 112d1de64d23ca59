#include "sim/event_queue.hh"

#include <algorithm>
#include <memory>

#include "obs/simprof.hh"
#include "sim/logging.hh"

namespace umany
{

EventQueue::EventQueue()
{
    slab_.reserve(initialCapacity);
    free_.reserve(initialCapacity);
    grow();
}

void
EventQueue::grow()
{
    // Whole 64-byte lines with the root at offset 3: node i's
    // children 4i+1..4i+4 then start on a line boundary.
    const std::size_t lines = capacity_ == 0
                                  ? initialCapacity / 4
                                  : 2 * ((capacity_ + 3) / 4);
    Node *fresh = static_cast<Node *>(
        ::operator new(lines * 64, std::align_val_t{64}));
    std::uninitialized_fill_n(fresh, lines * 4, sentinel);
    std::copy_n(heap_, count_, fresh + 3);
    lines_.reset(fresh);
    heap_ = fresh + 3;
    capacity_ = lines * 4 - 3;
}

void
EventQueue::schedule(Tick when, EvTag tag, Callback cb)
{
    if (when < _now) {
        panic("event scheduled in the past: when=%llu now=%llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    }
    if (nextSeq_ == maxScheduled)
        panic("more than 2^40 events scheduled");
    if (prof_ != nullptr)
        prof_->onSchedule(tag, when - _now);
    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
        slab_[slot].cb = std::move(cb);
        slab_[slot].src = tag.src;
    } else {
        if (slab_.size() == maxPending)
            panic("more than 2^24 events pending");
        slot = static_cast<std::uint32_t>(slab_.size());
        slab_.push_back(Slot{std::move(cb), tag.src});
    }
    const Node n{when, (nextSeq_++ << slotBits) | slot};
    if (held_) {
        // The running event's node is still the root: replace it.
        // Successors are often due soon, and then the sift stops
        // at once.
        held_ = false;
        replaceRoot(n);
    } else {
        // Keep three sentinels past the last node, so the last
        // parent's four children are all readable.
        if (count_ + 4 > capacity_)
            grow();
        heap_[count_] = n;
        siftUp(count_++);
    }
}

void
EventQueue::siftUp(std::size_t i)
{
    const Node n = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!before(n, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = n;
}

void
EventQueue::replaceRoot(Node n)
{
    std::size_t i = 0;
    for (std::size_t first; (first = 4 * i + 1) < count_;) {
        const std::size_t c = minChild(first);
        if (!before(heap_[c], n))
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
    const Node last = heap_[--count_];
    heap_[count_] = sentinel;
    if (count_ == 0)
        return;
    std::size_t i = 0;
    for (std::size_t first; (first = 4 * i + 1) < count_;) {
        const std::size_t c = minChild(first);
        heap_[i] = heap_[c];
        i = c;
    }
    heap_[i] = last;
    siftUp(i);
}

bool
EventQueue::step()
{
    if (held_)
        panic("EventQueue::step() called from inside a handler");
    if (count_ == 0)
        return false;
    const Node top = heap_[0];
    const auto slot =
        static_cast<std::uint32_t>(top.key & (maxPending - 1));
    // Move the callback out before invoking: the callback may
    // schedule new events and grow the slab, and its slot must be
    // reusable by those insertions.
    const EvSrc src = slab_[slot].src;
    Callback cb = std::move(slab_[slot].cb);
    free_.push_back(slot);
    _now = top.when;
    ++dispatched_;
    held_ = true;
    cb();
    if (held_) {
        // The handler scheduled nothing.
        held_ = false;
        popRoot();
    }
    if (prof_ != nullptr)
        prof_->onExecuted(EvTag{src}, count_, _now);
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
    while (count_ > 0) {
        if (heap_[0].when > limit) {
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
    while (count_ > 0) {
        if (heap_[0].when > limit) {
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

} // namespace umany
