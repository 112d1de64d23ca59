#include "sched/queue_system.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace umany
{

namespace
{

/** Live entries below which shifting the longer side costs little
 *  and no room is opened before the head. */
constexpr std::size_t kShallowList = 64;

} // namespace

void
ReadyList::insert(std::uint64_t seq, ServiceRequest *req)
{
    if (empty() || entries_.back().seq < seq) {
        entries_.push_back({seq, req});
        return;
    }
    auto first = entries_.begin() + static_cast<std::ptrdiff_t>(head_);
    auto pos = std::lower_bound(
        first, entries_.end(), seq,
        [](const Entry &e, std::uint64_t s) { return e.seq < s; });
    if (pos->seq == seq) {
        panic("ready list: duplicate seq %llu",
              static_cast<unsigned long long>(seq));
    }
    const std::size_t older = static_cast<std::size_t>(pos - first);
    const std::size_t younger =
        static_cast<std::size_t>(entries_.end() - pos);
    if (older >= younger) {
        entries_.insert(pos, {seq, req});
        return;
    }
    if (head_ == 0) {
        if (younger <= kShallowList) {
            entries_.insert(pos, {seq, req});
            return;
        }
        // A deep list with no dead slot before the head: open a
        // quarter of its size, so this and the next front inserts
        // shift only their older side.
        rebase(size() / 4);
        first = entries_.begin() + static_cast<std::ptrdiff_t>(head_);
        pos = first + static_cast<std::ptrdiff_t>(older);
    }
    // Shift the older side down into the dead slot before the head.
    std::move(first, pos, first - 1);
    --head_;
    *(pos - 1) = {seq, req};
}

ServiceRequest *
ReadyList::popFront()
{
    if (empty())
        return nullptr;
    ServiceRequest *req = entries_[head_].req;
    ++head_;
    if (empty()) {
        entries_.clear();
        head_ = 0;
    } else if (head_ > kShallowList && head_ > 2 * size()) {
        rebase(size() / 4);
    }
    return req;
}

ServiceRequest *
ReadyList::popBack()
{
    if (empty())
        return nullptr;
    ServiceRequest *req = entries_.back().req;
    entries_.pop_back();
    if (empty()) {
        entries_.clear();
        head_ = 0;
    }
    return req;
}

void
ReadyList::rebase(std::size_t slack)
{
    const auto begin = entries_.begin();
    if (slack < head_) {
        entries_.erase(begin + static_cast<std::ptrdiff_t>(slack),
                       begin + static_cast<std::ptrdiff_t>(head_));
    } else {
        entries_.insert(begin + static_cast<std::ptrdiff_t>(head_),
                        slack - head_, Entry{});
    }
    head_ = slack;
}

SwQueueSystem::SwQueueSystem(const SwQueueParams &p, std::uint64_t seed)
    : p_(p), rng_(seed)
{
    if (p_.numQueues == 0 || p_.numCores == 0)
        fatal("queue system needs queues and cores");
    if (p_.numQueues > p_.numCores)
        fatal("more queues (%u) than cores (%u)", p_.numQueues,
              p_.numCores);
    queues_.resize(p_.numQueues);
    coreIsIdle_.assign(p_.numCores, 0);
}

std::uint32_t
SwQueueSystem::queueOfCore(CoreId core) const
{
    // Contiguous blocks of cores per queue.
    const std::uint32_t per = p_.numCores / p_.numQueues;
    return std::min(core / per, p_.numQueues - 1);
}

std::uint32_t
SwQueueSystem::randomQueue()
{
    return static_cast<std::uint32_t>(rng_.below(p_.numQueues));
}

Tick
SwQueueSystem::opCost(std::uint32_t) const
{
    const double sharers =
        static_cast<double>(p_.numCores) / p_.numQueues;
    const double cycles = static_cast<double>(p_.opBaseCycles) *
                          (1.0 + p_.contentionPerSharer * sharers);
    return cyclesToTicks(cycles, p_.ghz);
}

Tick
SwQueueSystem::lockOp(std::uint32_t q, Tick now, Cycles extra_cycles)
{
    Queue &queue = queues_[q];
    const Tick start = std::max(now, queue.lockFree);
    lockWait_ += start - now;
    const Tick done =
        start + opCost(q) +
        cyclesToTicks(static_cast<double>(extra_cycles), p_.ghz);
    queue.lockFree = done;
    ++ops_;
    return done;
}

Tick
SwQueueSystem::enqueue(std::uint32_t q, std::uint64_t seq,
                       ServiceRequest *req, Tick now)
{
    if (q >= p_.numQueues)
        panic("enqueue to bad queue %u", q);
    queues_[q].ready.insert(seq, req);
    UMANY_TRACE(TraceSink::active()->instant(
        now, tracePid_, traceSwqTrack(q), "swq.enqueue", 0,
        static_cast<double>(queues_[q].ready.size())));
    return lockOp(q, now, 0);
}

ServiceRequest *
SwQueueSystem::dequeue(CoreId core, Tick now, Tick &done)
{
    const std::uint32_t home = queueOfCore(core);
    done = lockOp(home, now, 0);
    ServiceRequest *req = queues_[home].ready.popFront();
    if (req != nullptr) {
        UMANY_TRACE(TraceSink::active()->instant(
            now, tracePid_, traceSwqTrack(home), "swq.dequeue", 0,
            static_cast<double>(queues_[home].ready.size())));
    }
    if (req != nullptr || !p_.workStealing)
        return req;

    // Steal: probe random victims, paying for each probe. Failed
    // probes (and self-collisions) still grab the victim's lock and
    // burn stealCycles — the cost lands in `done` either way, so the
    // caller sees the core busy even when nothing was found.
    for (std::uint32_t i = 0; i < p_.stealAttempts; ++i) {
        const std::uint32_t victim =
            static_cast<std::uint32_t>(rng_.below(p_.numQueues));
        ++stealProbes_;
        done = lockOp(victim, done, p_.stealCycles);
        if (victim == home)
            continue;
        req = queues_[victim].ready.popBack();
        if (req != nullptr) {
            ++steals_;
            UMANY_TRACE(TraceSink::active()->instant(
                now, tracePid_, traceSwqTrack(victim), "swq.steal",
                0,
                static_cast<double>(queues_[victim].ready.size())));
            return req;
        }
    }
    return nullptr;
}

std::size_t
SwQueueSystem::queueLength(std::uint32_t q) const
{
    return queues_[q].ready.size();
}

std::size_t
SwQueueSystem::totalReady() const
{
    std::size_t total = 0;
    for (const auto &q : queues_)
        total += q.ready.size();
    return total;
}

void
SwQueueSystem::coreIdle(CoreId core)
{
    if (coreIsIdle_[core])
        return;
    coreIsIdle_[core] = 1;
    queues_[queueOfCore(core)].idleCores.push_back(core);
}

CoreId
SwQueueSystem::claimIdleCore(std::uint32_t q)
{
    auto &idle = queues_[q].idleCores;
    if (idle.empty())
        return invalidId;
    const CoreId core = idle.back();
    idle.pop_back();
    coreIsIdle_[core] = 0;
    return core;
}

} // namespace umany
