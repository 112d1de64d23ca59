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

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/server.hh"
#include "rpc/inter_server.hh"
#include "stats/histogram.hh"
#include "stats/summary.hh"
#include "workload/service.hh"

namespace umany
{

/**
 * Client-side recovery policy at the load-generator boundary:
 * each root request is a task that is retried with exponential
 * backoff when an attempt times out (or comes back rejected),
 * up to a retry budget. Off by default — the legacy submit path
 * is taken unchanged when disabled.
 */
struct RecoveryParams
{
    bool enabled = false;
    /** Client-observed deadline for one attempt. */
    Tick timeout = fromMs(5.0);
    /** Retries beyond the first attempt (maxRetries + 1 total). */
    std::uint32_t maxRetries = 3;
    Tick backoffBase = fromUs(500.0);
    double backoffFactor = 2.0;
    Tick backoffCap = fromMs(8.0);
    /** Also retry attempts the server explicitly rejected/shed. */
    bool retryRejects = true;

    /** Deterministic delay before attempt @p attempt + 1. */
    Tick backoffDelay(std::uint32_t attempt) const;
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
     * gives each package a disjoint range so attribution records
     * (keyed by request id in one shared registry) never collide
     * across packages. 0 (the default) keeps the historical ids.
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

    /**
     * Submit one root request for @p endpoint (round-robin across
     * servers), as the load generator's client would.
     */
    void submitRoot(ServiceId endpoint);

    /** @name Rack integration (src/rack). @{ */
    /**
     * What the rack layer reports back when a root it routed
     * resolves: the client-observed latency (package latency plus
     * both inter-package hops), the hop ticks alone, and the tick
     * the root arrived at the load balancer.
     */
    struct RackRootInfo
    {
        Tick latency = 0;
        Tick hopTicks = 0;
        Tick clientStart = 0;
    };
    /**
     * Called exactly once per rack-routed root when it resolves
     * (completion, rejection, or recovery give-up — @p req is null
     * for a give-up). The package then records @p latency — not its
     * local view — into its histograms and ledger, so merging
     * package histograms yields client-observed rack latencies.
     */
    using RackRootFn = std::function<RackRootInfo(
        ServiceRequest *req, std::uint64_t ctx, Tick pkg_latency,
        bool completed)>;
    RackRootFn onRackRootDone;
    /**
     * Rack-routed submit: like submitRoot(), with an opaque rack
     * context (nonzero) passed back through onRackRootDone when the
     * root resolves.
     */
    void submitRoot(ServiceId endpoint, std::uint64_t rack_ctx);
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
    std::uint64_t requestsInFlight() const { return requests_.size(); }
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

    std::unordered_map<RequestId,
                       std::unique_ptr<ServiceRequest>> requests_;
    RequestId nextId_ = 1;
    std::uint32_t rrServer_ = 0;

    /**
     * One root request as the client sees it: a sequence of attempts
     * (each a distinct ServiceRequest) until a response arrives in
     * time or the retry budget runs out. The event queue has no
     * cancel primitive, so every scheduled timeout carries the
     * attempt generation and no-ops when it is no longer current.
     */
    struct RootTask
    {
        ServiceId endpoint = 0;
        Tick firstSubmit = 0;
        std::uint32_t attempt = 0;    //!< Attempts launched so far.
        std::uint64_t generation = 0; //!< Bumped per launch/resolve.
        RequestId inFlight = 0;       //!< 0 while backing off.
        ServerId lastTarget = 0;
        std::uint64_t rackCtx = 0;    //!< Rack routing context (0 = none).
    };
    std::unordered_map<std::uint64_t, RootTask> tasks_;
    std::unordered_map<RequestId, std::uint64_t> reqTask_;
    /** Rack context of non-recovery roots (empty off the rack). */
    std::unordered_map<RequestId, std::uint64_t> rackCtx_;
    std::uint64_t nextTask_ = 1;
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

    void handleRootComplete(ServerId s, ServiceRequest *req);
    /** @name Recovery machinery (recovery.enabled only) @{ */
    void launchAttempt(std::uint64_t task_id);
    void onAttemptTimeout(std::uint64_t task_id, std::uint64_t gen);
    void scheduleRetry(std::uint64_t task_id);
    void recoveredRootComplete(ServiceRequest *req);
    /** @} */
    void handleStorageCall(ServerId s, ServiceRequest *parent,
                           const CallStep &step);
    void handleServiceCall(ServerId s, ServiceRequest *parent,
                           const CallStep &step);
    void handleRemoteChildFinished(ServerId s, ServiceRequest *child);
};

} // namespace umany

#endif // UMANY_ARCH_CLUSTER_SIM_HH
