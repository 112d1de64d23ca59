/**
 * @file
 * Hardware Request Queue (§4.3, Fig 13): a per-village circular
 * buffer of request entries with Status / Service ID / Req Ptr
 * fields backed by a Request Context Memory. Enqueue and dequeue
 * run in hardware; cores spin on a Work flag and use Dequeue /
 * Complete / ContextSwitch instructions.
 *
 * The model tracks entry occupancy (running + blocked + ready all
 * hold entries), the FCFS-by-arrival ready order the Dequeue
 * instruction implements via the head pointer, NIC overflow
 * buffering, and rejection when both fill up.
 */

#ifndef UMANY_SCHED_HW_RQ_HH
#define UMANY_SCHED_HW_RQ_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "sched/queue_system.hh" // ReadyList
#include "sim/types.hh"

namespace umany
{

/** Hardware RQ parameters (Table: 64-entry RQ per village). */
struct HwRqParams
{
    std::uint32_t entries = 64;
    std::uint32_t nicBufferEntries = 256;
    Cycles dequeueCycles = 16;  //!< Dequeue instruction.
    Cycles completeCycles = 8;  //!< Complete instruction.
    double ghz = 2.0;
};

/** Outcome of trying to admit a request into the village. */
enum class RqAdmit : std::uint8_t
{
    Admitted, //!< Entry allocated; request is queued.
    Buffered, //!< RQ full; waiting in the NIC buffer.
    Rejected, //!< NIC buffer also full; dropped.
};

/** One village's hardware request queue. */
class HwRq
{
  public:
    explicit HwRq(const HwRqParams &p);

    const HwRqParams &params() const { return p_; }

    /**
     * Request arrives from the village NIC.
     * Admitted/Buffered requests are owned by the queue until
     * dequeued; the caller handles Rejected.
     */
    RqAdmit admit(std::uint64_t seq, ServiceRequest *req);

    /**
     * A blocked request became ready (its responses arrived); the
     * NIC sets the Status field — no core cost.
     */
    void makeReady(std::uint64_t seq, ServiceRequest *req);

    /**
     * Dequeue instruction: pop the ready entry closest to the head.
     * @param now Current tick.
     * @param done Out: tick when the instruction completes.
     */
    ServiceRequest *dequeue(Tick now, Tick &done);

    /**
     * A sibling village's idle core steals this RQ's youngest ready
     * entry (Corey schedule::steal() semantics: the youngest is the
     * coldest). Frees the entry here; if the NIC buffer holds a
     * request, the oldest is promoted into the freed entry and
     * returned via @p promoted (same contract as complete()).
     *
     * @return The stolen request, or nullptr when nothing is ready.
     */
    ServiceRequest *stealYoungest(ServiceRequest *&promoted);

    /**
     * Account a request stolen from a sibling into this village:
     * it occupies an entry here from now (it goes straight to the
     * thief core, so it never visits the ready list).
     */
    void adoptStolen();

    /**
     * Complete instruction: free the entry of a finished request
     * (the operand is its service ID, which the entry count does not
     * depend on); if the NIC buffer holds a waiting request, the
     * oldest is promoted into the freed entry.
     *
     * @return The promoted request (now Queued) or nullptr.
     */
    ServiceRequest *complete(ServiceId);

    /** Entries in use (running + blocked + ready). */
    std::uint32_t inFlight() const { return inFlight_; }
    bool full() const { return inFlight_ >= p_.entries; }
    std::size_t readyCount() const { return ready_.size(); }
    std::size_t bufferedCount() const { return nicBuffer_.size(); }

    /** @name Per-village idle-core registry (Work-flag model). @{ */
    void coreIdle(CoreId core);
    CoreId claimIdleCore();
    /** @} */

    std::uint64_t admitted() const { return admitted_; }
    std::uint64_t rejectedCount() const { return rejected_; }
    /** Complete instructions executed (conservation: admitted +
     *  stealsIn == completes + stealsOut + inFlight at every
     *  point). */
    std::uint64_t completes() const { return completes_; }
    /** Entries stolen out of this RQ by sibling villages. */
    std::uint64_t stealsOut() const { return stealsOut_; }
    /** Requests adopted from sibling RQs by this village's cores. */
    std::uint64_t stealsIn() const { return stealsIn_; }
    /** Idle-core registry contents (invariant auditing). */
    const std::vector<CoreId> &idleCores() const { return idleCores_; }

  private:
    HwRqParams p_;
    ReadyList ready_;
    std::uint32_t inFlight_ = 0;
    std::deque<std::pair<std::uint64_t, ServiceRequest *>> nicBuffer_;
    std::vector<CoreId> idleCores_;
    std::uint64_t admitted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t completes_ = 0;
    std::uint64_t stealsOut_ = 0;
    std::uint64_t stealsIn_ = 0;

    /** Shared tail of complete()/stealYoungest(): release one
     *  entry and promote the oldest buffered request. */
    ServiceRequest *releaseEntry();
};

} // namespace umany

#endif // UMANY_SCHED_HW_RQ_HH
