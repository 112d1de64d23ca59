/**
 * @file
 * ClusterSim: the N-server deployment the evaluation models (§5) —
 * servers with identical machines, a 1 μs / 200 GB/s inter-server
 * fabric, service-instance placement across villages and servers,
 * request routing (local-vs-remote downstream calls), and
 * end-to-end latency recording.
 */

#ifndef UMANY_ARCH_CLUSTER_SIM_HH
#define UMANY_ARCH_CLUSTER_SIM_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "arch/server.hh"
#include "rpc/inter_server.hh"
#include "sim/object_pool.hh"
#include "stats/histogram.hh"
#include "stats/summary.hh"
#include "workload/service.hh"

namespace umany
{

/**
 * Client-side recovery at the load-generator boundary. Every root is
 * a task; with recovery on, an attempt that times out or comes back
 * rejected is retried with exponential backoff, up to a retry
 * budget. Off by default: a task then makes exactly one attempt and
 * schedules no deadline. The policy's shape is fixed; only the
 * switch is configurable.
 */
struct RecoveryParams
{
    bool enabled = false;
    /** Client-observed deadline for one attempt. */
    static constexpr Tick timeout = fromMs(5.0);
    /** Retries beyond the first attempt (maxRetries + 1 total). */
    static constexpr std::uint32_t maxRetries = 3;
    static constexpr Tick backoffBase = fromUs(500.0);
    static constexpr double backoffFactor = 2.0;
    static constexpr Tick backoffCap = fromMs(8.0);

    /** Deterministic delay before attempt @p attempt + 1. */
    static Tick backoffDelay(std::uint32_t attempt);
};

/** Cluster-level configuration. */
struct ClusterSimParams
{
    std::uint32_t numServers = 10;
    /** Probability a downstream call stays on the caller's server
     *  when an instance exists there. */
    double localCallBias = 0.7;
    StorageParams storage;
    InterServerParams interServer; //!< numServers is overridden.
    RecoveryParams recovery;
    std::uint64_t seed = 0x5ca1ab1eull;
    /**
     * Offset added to every locally-assigned request id. RackSim
     * gives each package a disjoint range so request ids stay unique
     * across packages: trace ids rely on it, and the rack tail
     * profile reads a root's package from its id. 0 (the default)
     * keeps the historical ids.
     */
    RequestId idBase = 0;
    /**
     * Offset added to every trace pid this cluster emits. RackSim
     * gives package N the pid block [N*numServers, (N+1)*numServers)
     * so one merged Chrome trace keeps per-package server processes
     * distinct. 0 (the default) keeps the historical flat pids.
     */
    std::uint32_t tracePidBase = 0;
};

/**
 * The rack load balancer's record of a root it routed. It rides with
 * the root's client task inside the package and comes back through
 * ClusterSim::onRackRootDone, so the rack layer keeps no per-root
 * state.
 */
struct LbRecord
{
    /** Context number (trace id); 0 = not rack-routed. */
    std::uint64_t ctx = 0;
    Tick lbArrival = 0; //!< When the root reached the LB.
    Tick reqQueue = 0;  //!< Queueing share of the request hop.
};

/** The simulated server cluster. */
class ClusterSim
{
  public:
    ClusterSim(EventQueue &eq, const ServiceCatalog &catalog,
               const MachineParams &machine,
               const ClusterSimParams &p);
    ~ClusterSim();

    ClusterSim(const ClusterSim &) = delete;
    ClusterSim &operator=(const ClusterSim &) = delete;

    /** Payload sizes of a root's request and response. */
    static constexpr std::uint32_t rootReqBytes = 512;
    static constexpr std::uint32_t rootRespBytes = 2048;

    /**
     * Submit one root request for @p endpoint (round-robin across
     * servers), as the load generator's client would. A rack-routed
     * root carries its LB record (nonzero ctx), handed back through
     * onRackRootDone when the root resolves.
     */
    void submitRoot(ServiceId endpoint, const LbRecord &lb = {});

    /** @name Rack integration (src/rack). @{ */
    /**
     * Called exactly once per rack-routed root when it resolves
     * (completion, rejection, or recovery give-up — @p req is null
     * for a give-up), with the root's LB record and the tick it
     * entered this package. Returns the ticks of both inter-package
     * hops; a completed root's package adds them to its local
     * latency and records the sum, timed from the LB arrival, into
     * its histograms and ledger, so merging package histograms
     * yields client-observed rack latencies.
     */
    using RackRootFn = std::function<Tick(
        ServiceRequest *req, const LbRecord &lb, Tick first_submit)>;
    RackRootFn onRackRootDone;
    /** @} */

    /** Enable/disable latency recording (off during warmup). */
    void setRecording(bool on) { recording_ = on; }

    /** Optional per-endpoint QoS thresholds (§6.5). */
    void setQosThreshold(ServiceId endpoint, Tick threshold);

    /** @name Metrics @{ */
    const Histogram &endpointLatency(ServiceId endpoint) const;
    const Histogram &allLatency() const { return allLatency_; }
    /** @name Per-service-request time breakdown (§3.3). @{ */
    const Summary &queuedTimeUs() const { return queuedUs_; }
    const Summary &blockedTimeUs() const { return blockedUs_; }
    const Summary &runningTimeUs() const { return runningUs_; }
    /** running / (running+blocked+queued) per handler execution. */
    const Summary &requestCpuUtilization() const { return reqUtil_; }
    /** @} */
    std::uint64_t completedRoots() const { return completedRoots_; }
    std::uint64_t rejectedRoots() const { return rejectedRoots_; }
    std::uint64_t qosViolations() const { return qosViolations_; }
    std::uint64_t observedRoots() const { return observedRoots_; }
    /** @name Recovery counters (all zero when recovery is off). @{ */
    bool recoveryEnabled() const { return p_.recovery.enabled; }
    std::uint64_t retries() const { return retries_; }
    std::uint64_t timeouts() const { return timeouts_; }
    /** Roots abandoned after exhausting the retry budget. */
    std::uint64_t shedRoots() const { return shedRoots_; }
    /** Responses that arrived after their attempt timed out. */
    std::uint64_t staleResponses() const { return staleResponses_; }
    /** @} */
    std::uint64_t requestsInFlight() const { return reqPool_.live(); }
    /** @} */

    std::uint32_t numServers() const
    {
        return static_cast<std::uint32_t>(servers_.size());
    }
    Machine &machine(ServerId s) { return servers_[s]->machine(); }
    Server &server(ServerId s) { return *servers_[s]; }
    const ServiceCatalog &catalog() const { return catalog_; }
    /** The event queue driving this simulation. */
    const EventQueue &eventq() const { return eq_; }

  private:
    EventQueue &eq_;
    const ServiceCatalog &catalog_;
    ClusterSimParams p_;
    /** Per-component streams (see streamSeed()): service-time
     *  behavior draws vs child-call placement. */
    Rng behaviorRng_;
    Rng placeRng_;

    std::vector<std::unique_ptr<Server>> servers_;
    std::unique_ptr<InterServerNet> interServer_;

    /** Every request this cluster ever built; finished ones are
     *  recycled, so a steady state allocates none. */
    ObjectPool<ServiceRequest> reqPool_;
    RequestId nextId_ = 1;
    std::uint32_t rrServer_ = 0;

    /**
     * One root request as the client sees it: a sequence of attempts
     * (each a distinct ServiceRequest, which carries the task's
     * slot) until a response arrives in time or the retry budget
     * runs out. Without recovery a task makes exactly one attempt.
     * The event queue has no cancel primitive, so a deadline or
     * retry carries (slot, generation) and no-ops once the
     * generation moved on.
     */
    struct RootTask
    {
        Tick firstSubmit = 0;
        /** The attempt whose response counts; null while backing
         *  off, so any other response is stale. */
        ServiceRequest *inFlight = nullptr;
        LbRecord lb;
        /** Bumped per launch and resolve; it only grows, across the
         *  slot's lives too, so a stale event never matches. */
        std::uint32_t generation = 0;
        std::uint32_t trace = 0;   //!< Trace id, in submit order.
        std::uint32_t attempt = 0; //!< Attempts launched so far.
        ServerId lastTarget = 0;
        ServiceId endpoint = 0;
    };
    /**
     * Tasks by slot. Deadlines and retries can outlive their task,
     * so a slot is never relocated or poisoned: the deque grows at
     * the back only, and released slots are reused from a free list.
     */
    std::deque<RootTask> tasks_;
    std::vector<std::uint32_t> freeTasks_;
    std::uint32_t nextTrace_ = 1;
    /** Lifecycle-conservation pair audited at finalCheck(). */
    std::uint64_t attemptsLaunched_ = 0;
    std::uint64_t attemptsResolved_ = 0;

    bool recording_ = true;
    std::vector<Histogram> perEndpoint_; //!< Indexed by ServiceId.
    Histogram allLatency_;
    Summary queuedUs_;
    Summary blockedUs_;
    Summary runningUs_;
    Summary reqUtil_;
    std::vector<Tick> qosThreshold_;     //!< 0 == unset.
    std::uint64_t completedRoots_ = 0;
    std::uint64_t rejectedRoots_ = 0;
    std::uint64_t qosViolations_ = 0;
    std::uint64_t observedRoots_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t shedRoots_ = 0;
    std::uint64_t staleResponses_ = 0;

    void placeInstances();
    void wireServer(ServerId s);
    ServiceRequest *makeRequest(ServiceId service,
                                ServiceRequest *parent);
    void destroy(ServiceRequest *req);

    /** Resolve every root: response, rejection or stale response. */
    void handleRootComplete(ServiceRequest *req);
    void launchAttempt(std::uint32_t slot);
    /** @name Recovery machinery (recovery.enabled only) @{ */
    void onAttemptTimeout(std::uint32_t slot, std::uint32_t gen);
    void scheduleRetry(std::uint32_t slot);
    /** @} */
    void handleStorageCall(ServerId s, ServiceRequest *parent,
                           const CallStep &step);
    void handleServiceCall(ServerId s, ServiceRequest *parent,
                           const CallStep &step);
    void handleRemoteChildFinished(ServerId s, ServiceRequest *child);
};

} // namespace umany

#endif // UMANY_ARCH_CLUSTER_SIM_HH
