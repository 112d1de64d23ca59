/**
 * @file
 * Software request queuing (§3.2, Fig 3): N FCFS queues over M
 * cores with lock-contention costs that grow with the number of
 * cores sharing a queue, and optional work stealing.
 *
 * This is the scheduling substrate of the ScaleOut and ServerClass
 * baselines and of the Fig 3 queue-count sweep.
 */

#ifndef UMANY_SCHED_QUEUE_SYSTEM_HH
#define UMANY_SCHED_QUEUE_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "sched/request.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace umany
{

/**
 * FCFS ready list ordered by arrival sequence number, so requests
 * unblocked after an RPC resume ahead of later arrivals — the same
 * ordering the hardware RQ provides via its head pointer.
 *
 * The (seq, req) pairs sit sorted in one vector whose live part
 * starts at a head offset. A fresh arrival carries the largest seq
 * and is appended; an unblocked request is placed by binary search,
 * shifting whichever side of it is shorter (the older side moves
 * into a dead slot before the head). popFront() advances the head,
 * and dead slots are compacted at amortized O(1) cost. The vector
 * keeps its capacity, so a steady state allocates nothing, at the
 * hardware RQ's 64 entries and at software-queue depths of
 * thousands alike. Sequence numbers are unique: inserting one that
 * is already listed panics.
 */
class ReadyList
{
  public:
    void insert(std::uint64_t seq, ServiceRequest *req);

    /** Pop the oldest entry (nullptr when empty). */
    ServiceRequest *popFront();

    /** Pop the youngest entry (steal semantics; nullptr when empty). */
    ServiceRequest *popBack();

    bool empty() const { return head_ == entries_.size(); }
    std::size_t size() const { return entries_.size() - head_; }

  private:
    struct Entry
    {
        std::uint64_t seq;
        ServiceRequest *req;
    };

    std::vector<Entry> entries_;
    std::size_t head_ = 0; //!< Index of the oldest live entry.

    /** Slide the live entries so @p slack dead slots precede them. */
    void rebase(std::size_t slack);
};

/** Parameters of the software queue system. */
struct SwQueueParams
{
    std::uint32_t numQueues = 32;
    std::uint32_t numCores = 1024;
    /** Base cycles per queue operation (uncontended). */
    Cycles opBaseCycles = 150;
    /**
     * Additional fractional cost per core sharing the queue: models
     * the coherence ping-pong on the queue lock/line. Effective op
     * cost = base * (1 + contentionPerSharer * coresPerQueue).
     */
    double contentionPerSharer = 0.008;
    bool workStealing = false;
    std::uint32_t stealAttempts = 2;
    /** Extra cycles per steal probe. */
    Cycles stealCycles = 300;
    double ghz = 2.0;
};

/**
 * The software queue system. All operations serialize on the target
 * queue's lock; the caller uses the returned completion tick to
 * schedule downstream events.
 */
class SwQueueSystem
{
  public:
    SwQueueSystem(const SwQueueParams &p, std::uint64_t seed);

    const SwQueueParams &params() const { return p_; }

    /** Queue a core belongs to. */
    std::uint32_t queueOfCore(CoreId core) const;

    /** Uniformly random queue (Fig 3's random assignment). */
    std::uint32_t randomQueue();

    /**
     * Perform an enqueue/unblock operation on queue @p q starting at
     * @p now; the entry is inserted immediately; the returned tick is
     * when the op (lock wait + work) completes.
     */
    Tick enqueue(std::uint32_t q, std::uint64_t seq,
                 ServiceRequest *req, Tick now);

    /**
     * Dequeue for @p core at @p now, stealing if enabled and the
     * home queue is empty.
     *
     * @param done Out: tick at which the op completes.
     * @return The request, or nullptr when nothing was found.
     */
    ServiceRequest *dequeue(CoreId core, Tick now, Tick &done);

    std::size_t queueLength(std::uint32_t q) const;
    std::size_t totalReady() const;

    /** @name Idle-core registry (per queue). @{ */
    void coreIdle(CoreId core);
    /** An idle core of queue @p q (claimed), or invalidId. */
    CoreId claimIdleCore(std::uint32_t q);
    /** Whether @p core is currently in the idle registry
     *  (invariant auditing: an idle-registered core must not be
     *  executing a request). */
    bool idleRegistered(CoreId core) const
    {
        return core < coreIsIdle_.size() && coreIsIdle_[core] != 0;
    }
    /** @} */

    std::uint64_t ops() const { return ops_; }
    std::uint64_t steals() const { return steals_; }
    /** Steal probes issued, successful or not (each pays
     *  stealCycles — failed probes are real work too). */
    std::uint64_t stealProbes() const { return stealProbes_; }
    Tick lockWaitTotal() const { return lockWait_; }

    /** Server id used as the pid of emitted trace events. */
    void setTracePid(std::uint32_t pid) { tracePid_ = pid; }

  private:
    SwQueueParams p_;
    Rng rng_;
    std::uint32_t tracePid_ = 0;

    struct Queue
    {
        ReadyList ready;
        Tick lockFree = 0;
        std::vector<CoreId> idleCores;
    };
    std::vector<Queue> queues_;
    std::vector<std::uint8_t> coreIsIdle_;

    std::uint64_t ops_ = 0;
    std::uint64_t steals_ = 0;
    std::uint64_t stealProbes_ = 0;
    Tick lockWait_ = 0;

    /** Serialize one op on queue @p q from @p now; returns done tick. */
    Tick lockOp(std::uint32_t q, Tick now, Cycles extra_cycles);
    Tick opCost(std::uint32_t q) const;
};

} // namespace umany

#endif // UMANY_SCHED_QUEUE_SYSTEM_HH
