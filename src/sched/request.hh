/**
 * @file
 * Service requests: the unit of scheduling and accounting.
 *
 * A request executes a Behavior: alternating compute segments and
 * blocking call groups. A call group contains one or more calls
 * (storage accesses or invocations of other services) issued in
 * parallel; the request blocks until all of them respond — matching
 * the fan-out/aggregate pattern of multi-tier microservices (§2.1).
 */

#ifndef UMANY_SCHED_REQUEST_HH
#define UMANY_SCHED_REQUEST_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "sim/types.hh"

namespace umany
{

/** Lifecycle states of a service request (mirrors the RQ Status field). */
enum class ReqState : std::uint8_t
{
    Created,  //!< Allocated, not yet at its village.
    Queued,   //!< In a request queue, ready to run.
    Running,  //!< Executing on a core.
    Blocked,  //!< Waiting on a call group.
    Ready,    //!< Responses arrived; waiting to be re-dequeued.
    Finished, //!< All segments executed.
    Rejected, //!< Dropped: queue and NIC buffers full.
};

/** Human-readable state name. */
const char *reqStateName(ReqState s);

struct AttribRecord;

/** One blocking call within a call group. */
struct CallStep
{
    enum class Kind : std::uint8_t
    {
        Storage, //!< Remote storage access (I/O).
        Service, //!< Synchronous RPC to another service.
    };

    Kind kind = Kind::Storage;
    ServiceId callee = invalidId; //!< For Kind::Service.
    std::uint32_t requestBytes = 512;
    std::uint32_t responseBytes = 1024;

    bool operator==(const CallStep &) const = default;
};

/**
 * The execution shape of one handler invocation.
 *
 * segments[i] runs, then group i is issued (if i < blockingCalls());
 * execution finishes after the last segment. The groups are stored
 * flat: group i is calls[groupEnds[i-1], groupEnds[i]), with
 * groupEnds[-1] read as 0, so refilling a Behavior whose vectors
 * kept their capacity allocates nothing. Segment durations are
 * expressed in ticks of *reference-core* work; machines scale them
 * by their per-core performance factor.
 */
struct Behavior
{
    std::vector<Tick> segments;
    std::vector<CallStep> calls;
    /** End index in calls of each group, one per group (defaulted,
     *  so a group-free Behavior{segments, {}} needs no third list). */
    std::vector<std::uint32_t> groupEnds = {};

    /** The calls of group @p i, issued in parallel. */
    std::span<const CallStep> group(std::size_t i) const
    {
        const std::size_t begin = i == 0 ? 0 : groupEnds[i - 1];
        return {calls.data() + begin, groupEnds[i] - begin};
    }

    /** Close the group being built: the calls since the last one. */
    void endGroup()
    {
        groupEnds.push_back(static_cast<std::uint32_t>(calls.size()));
    }

    /** Append a whole group. */
    void addGroup(std::initializer_list<CallStep> g)
    {
        calls.insert(calls.end(), g);
        endGroup();
    }

    /** Empty every vector, keeping its capacity. */
    void clear()
    {
        segments.clear();
        calls.clear();
        groupEnds.clear();
    }

    /**
     * Validate shape: segments.size() == blockingCalls() + 1, every
     * group non-empty, and the groups cover exactly calls.
     */
    bool wellFormed() const;

    /** Sum of segment work (reference ticks). */
    Tick totalWork() const;

    /** Number of blocking call groups. */
    std::size_t blockingCalls() const { return groupEnds.size(); }

    bool operator==(const Behavior &) const = default;
};

/**
 * A service request in flight. ClusterSim recycles them: a released
 * request is reset() for its next life, which keeps only the
 * capacity of its Behavior's vectors.
 */
class ServiceRequest
{
  public:
    ServiceRequest(RequestId id, ServiceId service, Behavior behavior);

    /**
     * Start a new life as request @p id of @p service: every field
     * returns to its default, as after construction with an empty
     * Behavior, but the Behavior keeps its vectors' capacity for
     * the caller to refill through mutableBehavior().
     */
    void reset(RequestId id, ServiceId service);

    /** @name Identity @{ */
    RequestId id() const { return id_; }
    ServiceId service() const { return service_; }
    /** @} */

    /** @name Parent/child linkage for nested RPCs @{ */
    ServiceRequest *parent = nullptr;
    std::uint32_t pendingChildren = 0;
    /** Index of the call group the parent is blocked on. */
    std::size_t blockedGroup = 0;
    /** @} */

    /** @name Placement @{ */
    ServerId server = invalidId;
    VillageId village = invalidId;   //!< Hosting village (global id).
    CoreId lastCore = invalidId;     //!< Core of the last segment.
    /** @} */

    /** @name Execution progress @{ */
    std::size_t segIndex = 0;
    ReqState state = ReqState::Created;
    const Behavior &behavior() const { return behavior_; }
    /** The behaviour to fill after construction or reset(). */
    Behavior &mutableBehavior() { return behavior_; }
    bool lastSegment() const
    {
        return segIndex + 1 >= behavior_.segments.size();
    }
    /** @} */

    /** @name Timing accounting (all ticks) @{ */
    Tick createdAt = 0;    //!< Client-side creation (root) or call issue.
    Tick enqueuedAt = 0;   //!< Last arrival into a queue.
    Tick finishedAt = 0;
    Tick queuedTime = 0;   //!< Total time waiting in queues.
    Tick blockedTime = 0;  //!< Total time blocked on calls.
    Tick runningTime = 0;  //!< Total on-core time.
    std::uint32_t contextSwitches = 0;
    /** @} */

    /** @name Root-request bookkeeping (valid when parent == nullptr) @{ */
    ServiceId rootEndpoint = invalidId;
    /** Slot of the client task this root is an attempt of. */
    std::uint32_t taskSlot = 0;
    /** @} */

    /** @name Machine-internal bookkeeping @{ */
    /** FCFS arrival sequence assigned by the hosting machine. */
    std::uint64_t seq = 0;
    /** Software queue this request is bound to (SW machines). */
    std::uint32_t queueId = invalidId;
    /**
     * Core cycles of deferred software overhead (RPC-layer receive
     * processing, unblock handling) charged when the request next
     * occupies a core.
     */
    Cycles pendingOverhead = 0;
    /** Response payload size sent on completion. */
    std::uint32_t respBytes = 1024;
    /** Request payload size (arrival message). */
    std::uint32_t reqBytes = 512;
    /** Dropped by admission control (NIC buffer exhausted). */
    bool rejected = false;
    /** @} */

    /**
     * Latency ledger, owned by the active AttribRegistry; nullptr
     * whenever attribution is disabled.
     */
    AttribRecord *attrib = nullptr;

  private:
    RequestId id_;
    ServiceId service_;
    Behavior behavior_;
};

} // namespace umany

#endif // UMANY_SCHED_REQUEST_HH
