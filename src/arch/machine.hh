/**
 * @file
 * Machine: one server's processor package — cores grouped into
 * villages (L2/coherence domains) and clusters (ICN leaves), an
 * on-package interconnect, request queues (hardware RQs or software
 * queues), NICs, and the full intra-server request lifecycle.
 *
 * The three evaluated machines (μManycore, ScaleOut, ServerClass)
 * and all ablation/sensitivity variants are configurations of this
 * one engine; see arch/presets.hh.
 */

#ifndef UMANY_ARCH_MACHINE_HH
#define UMANY_ARCH_MACHINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "arch/cluster.hh"
#include "arch/village.hh"
#include "cpu/context.hh"
#include "cpu/core.hh"
#include "cpu/core_params.hh"
#include "mem/coherence.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "rpc/top_nic.hh"
#include "rpc/transport.hh"
#include "sched/dispatch_policy.hh"
#include "sched/dispatcher.hh"
#include "sched/queue_system.hh"
#include "sched/service_map.hh"
#include "sim/sim_object.hh"
#include "workload/service.hh"

namespace umany
{

class FaultState;
class InvariantChecker;

/** Full configuration of one machine. */
struct MachineParams
{
    std::string name = "uManycore";

    /** @name Structure @{ */
    std::uint32_t numCores = 1024;
    std::uint32_t coresPerVillage = 8;
    std::uint32_t villagesPerCluster = 4;
    bool hasMemoryPool = true;
    /** @} */

    /** @name Core @{ */
    CoreParams core;
    /** Execution-time multiplier vs the reference (manycore) core. */
    double perfFactor = 1.0;
    /**
     * §8 future work: heterogeneous villages. The first
     * floor(fraction * numVillages) villages get beefier cores with
     * the given (faster, < 1) time factor. 0 disables.
     */
    double bigVillageFraction = 0.0;
    double bigVillagePerfFactor = 0.8;
    /** @} */

    /** @name On-package ICN @{ */
    enum class Topo : std::uint8_t { Mesh, FatTree, LeafSpine };
    Topo topo = Topo::LeafSpine;
    Cycles hopCycles = 5;          //!< Table 2: 5 cycles per hop.
    double linkBytesPerTick = 0.002;
    bool icnContention = true;
    /** @} */

    /** @name Scheduling @{ */
    enum class Sched : std::uint8_t { HwRq, SwQueue };
    Sched sched = Sched::HwRq;
    std::uint32_t swQueueCount = 32;
    bool workStealing = false;
    std::uint32_t stealAttempts = 2;
    /** Fig 3: assign arrivals to random queues instead of by
     *  instance locality. */
    bool randomQueueAssignment = false;
    /**
     * Dispatch/scheduling policy (--dispatch=rr|po2c|jsqd|steal|slo).
     * RoundRobin is the paper's hardware dispatch and byte-identical
     * to the seed; steal/slo need the hardware RQ and fall back to
     * rr (with a warning) on software-scheduled machines.
     */
    DispatchPolicyParams dispatch;
    /** @} */

    /** @name Cost models @{ */
    ContextSwitchModel cs;
    HwRqParams rq;
    SwQueueParams swq;         //!< counts/ghz derived at build.
    DispatcherParams dispatcher;
    NicParams nic;
    TopNicParams topNic;
    CoherenceParams coherence;
    /** Fractional segment slowdown from directory indirection under
     *  global coherence. */
    double dirStallFactor = 0.04;
    /**
     * Directory/coherence data movement per nanosecond of segment
     * work under global coherence (bytes/ns). Flows village ->
     * random endpoint over the ICN, contending with latency-critical
     * messages (§4.1's "remote directory and network accesses").
     */
    double dirTrafficBytesPerNs = 0.10;
    /** Cap on one segment's directory-traffic message. */
    std::uint32_t dirTrafficMaxBytes = 128 * 1024;
    RNicTransportParams rnic;
    /** @} */
};

/**
 * Build the on-package topology @p p describes — the exact
 * construction Machine performs internally. Exposed so fault-plan
 * builders can enumerate the links/nodes of the machine they will
 * injure without instantiating a whole package.
 */
std::unique_ptr<Topology> makeTopology(const MachineParams &p);

/**
 * One server's processor package plus its request-execution engine.
 *
 * External integration points (set by the owning Server/ClusterSim
 * before traffic flows):
 *  - onRootComplete: a root request finished and its response left
 *    the package.
 *  - onStorageCall: a handler issued a storage access; the owner
 *    models the storage tier and later calls externalResponse().
 *  - onServiceCall: a handler invoked another service; the owner
 *    resolves placement and either calls localCall() back or ships
 *    the child to another server.
 *  - onRemoteChildFinished: a child whose parent lives on another
 *    server finished; the owner routes the response.
 *  - onChildConsumed: a local child's response was delivered; the
 *    owner may free it.
 */
class Machine : public SimObject
{
  public:
    Machine(std::string name, EventQueue &eq, const MachineParams &p,
            ServerId self, std::uint64_t seed);
    ~Machine() override;

    /** @name Wiring @{ */
    std::function<void(ServiceRequest *)> onRootComplete;
    std::function<void(ServiceRequest *, const CallStep &)>
        onStorageCall;
    std::function<void(ServiceRequest *, const CallStep &)>
        onServiceCall;
    std::function<void(ServiceRequest *)> onRemoteChildFinished;
    std::function<void(ServiceRequest *)> onChildConsumed;
    /** @} */

    /** Register a service instance in a village (placement). */
    void installInstance(ServiceId service, VillageId village);

    /** @name Fault injection @{ */
    /**
     * Create (on first call) and return this machine's fault state,
     * attaching it to the network. Until something is actually
     * marked down the armed state changes no behavior; a machine
     * with faults never armed pays nothing at all.
     */
    FaultState &armFaults();
    const FaultState *faultState() const { return faults_.get(); }
    bool faultsArmed() const { return faults_ != nullptr; }

    /** Mark a village up/down for dispatch (ServiceMap liveness). */
    void setVillageUp(VillageId v, bool up);

    /** Requests shed at the NIC for lack of a reachable instance. */
    std::uint64_t shedRequests() const { return shedNoPath_; }
    /** @} */

    /** @name Entry points @{ */
    /**
     * A request (root or remote child) reaches the package's
     * top-level NIC at the current tick.
     */
    void externalArrival(ServiceRequest *req);

    /** A local parent calls a service hosted on this machine. */
    void localCall(ServiceRequest *child, VillageId from_village);

    /**
     * A response for @p parent arrives from the external world
     * (storage completion or remote child response).
     */
    void externalResponse(ServiceRequest *parent,
                          std::uint32_t bytes);

    /**
     * Ship @p req (a child destined for another server) out of the
     * package: village ICN -> top NIC egress -> lossy transport.
     * @p on_exit runs when the message is on the external wire.
     */
    void outboundRequest(ServiceRequest *req, VillageId from,
                         std::function<void()> on_exit);
    /** @} */

    /** @name Introspection and statistics @{ */
    const MachineParams &params() const { return p_; }
    ServerId serverId() const { return self_; }
    /**
     * Offset every trace pid this machine (and its sub-components)
     * emits: rack runs give package p's servers the pid block
     * [base, base + numServers), so packages trace into disjoint
     * namespaces of one shared sink. Zero (the default) keeps the
     * flat single-package pids byte-identical.
     */
    void setTracePidBase(std::uint32_t base);
    /** The pid this server's trace events carry. */
    std::uint32_t tracePid() const { return tracePidBase_ + self_; }
    std::uint32_t numVillages() const
    {
        return static_cast<std::uint32_t>(villages_.size());
    }
    std::uint32_t numClusters() const
    {
        return static_cast<std::uint32_t>(clusters_.size());
    }
    const Village &village(VillageId v) const { return villages_[v]; }
    Cluster &cluster(ClusterId c) { return clusters_[c]; }
    ServiceMap &serviceMap() { return serviceMap_; }
    const ServiceMap &serviceMap() const { return serviceMap_; }
    Network &network() { return *net_; }
    const Network &network() const { return *net_; }
    const Topology &topology() const { return *topo_; }
    TopLevelNic &topNic() { return *topNic_; }

    VillageId villageOfCore(CoreId c) const;
    ClusterId clusterOfVillage(VillageId v) const;
    EndpointId villageEndpoint(VillageId v) const;
    /**
     * Requests waiting to run in @p v's queue right now (HW RQ:
     * ready + NIC-buffered entries; SW: the village's shared queue).
     * Used by the observability sampler.
     */
    std::size_t villageQueueDepth(VillageId v) const;
    /** Per-village execution-time factor (heterogeneous villages). */
    double villagePerfFactor(VillageId v) const;

    std::uint64_t completedRequests() const { return completed_; }
    std::uint64_t rejectedRequests() const { return rejected_; }
    std::uint64_t contextSwitches() const;

    /** @name Dispatch-policy introspection @{ */
    /** Effective policy (after the software-scheduling fallback). */
    DispatchKind dispatchKind() const { return dkind_; }
    /** Core pickups that began running a request (direct + steal). */
    std::uint64_t schedDispatches() const
    {
        return directDispatches_ + steals_;
    }
    std::uint64_t schedDirectDispatches() const
    {
        return directDispatches_;
    }
    /** Cross-village steals executed (HW RQ policy). */
    std::uint64_t schedSteals() const { return steals_; }
    /** Steal probes issued, failed ones included. */
    std::uint64_t schedStealProbes() const { return stealProbes_; }
    /** NIC depth probes issued by po2c/jsqd. */
    std::uint64_t schedNicProbes() const
    {
        return nicPolicy_ ? nicPolicy_->probesIssued() : 0;
    }
    /** Slice preemptions executed (Slo policy). */
    std::uint64_t schedPreemptions() const { return preempts_; }
    /** @} */
    double avgCoreUtilization() const;
    /** Utilization of the software dispatcher core (0 when absent). */
    double dispatcherUtilization() const;
    /** Dispatcher operations processed (0 when absent). */
    std::uint64_t dispatcherOps() const;
    const std::vector<Core> &cores() const { return cores_; }
    /** @} */

  private:
    MachineParams p_;
    ServerId self_;
    std::uint32_t tracePidBase_ = 0;
    std::uint64_t seed_;
    /** Coherence-traffic destination picks; the network, software
     *  queue system, and RNIC each get their own salted stream so
     *  subsystems cannot perturb each other's draws. */
    Rng rng_;

    std::unique_ptr<Topology> topo_;
    std::unique_ptr<Network> net_;
    std::vector<Core> cores_;
    std::vector<Village> villages_;
    std::vector<Cluster> clusters_;
    std::unique_ptr<SwQueueSystem> swq_;
    std::unique_ptr<SwDispatcher> dispatcher_;
    std::unique_ptr<TopLevelNic> topNic_;
    std::unique_ptr<RNicTransport> rnic_;
    ServiceMap serviceMap_;
    CoherenceModel coherence_;
    std::unique_ptr<FaultState> faults_;

    std::uint64_t nextSeq_ = 1;
    std::uint64_t completed_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t shedNoPath_ = 0;

    /** @name Dispatch policy @{ */
    DispatchKind dkind_ = DispatchKind::RoundRobin;
    std::unique_ptr<NicDispatchPolicy> nicPolicy_;
    /** Per-village deterministic steal cursor over siblings. */
    std::vector<std::uint32_t> stealCursor_;
    Tick sloBudget_ = 0;
    Tick sloSlice_ = 0;
    std::uint64_t directDispatches_ = 0;
    std::uint64_t steals_ = 0;
    std::uint64_t stealProbes_ = 0;
    std::uint64_t preempts_ = 0;
    /** @} */

    /** @name Construction helpers @{ */
    void buildTopology();
    void buildStructure();
    /** @} */

    /** @name Time helpers @{ */
    Tick cyc(double cycles) const
    {
        return cyclesToTicks(cycles, p_.core.ghz);
    }
    /** @} */

    /** @name Lifecycle steps @{ */
    void villageIngress(ServiceRequest *req, VillageId v);
    void enqueueFresh(ServiceRequest *req);
    void reEnqueue(ServiceRequest *req);
    void tryWakeVillage(VillageId v);
    void tryWakeQueue(std::uint32_t q);
    void corePickup(CoreId core) { corePickup(core, true); }
    void corePickup(CoreId core, bool allow_steal);
    void startRun(CoreId core, ServiceRequest *req, Tick ready_at,
                  bool stolen = false);
    void runSegment(CoreId core, ServiceRequest *req);
    void sliceDone(CoreId core, ServiceRequest *req, Tick slice_ref);
    void segmentDone(CoreId core, ServiceRequest *req);
    void issueCallGroup(ServiceRequest *req, VillageId v);
    void finishRequest(ServiceRequest *req, VillageId v);
    void deliverChildResponse(ServiceRequest *parent,
                              ServiceRequest *child);
    void responseProcessed(ServiceRequest *parent);
    void rejectRequest(ServiceRequest *req);
    void releaseCore(CoreId core);
    void markIdle(CoreId core);
    /** @} */

    /** @name Policy dispatch helpers @{ */
    /**
     * Policy-aware instance pick. Probing policies (po2c/jsqd) read
     * candidate RQ depths and return the probe cost in
     * @p probe_delay; round-robin leaves it zero and is
     * byte-identical to ServiceMap::pick().
     */
    VillageId pickDispatch(ServiceId service, Tick &probe_delay);
    /**
     * Idle-core steal walk over the home cluster's sibling RQs:
     * up to stealAttempts probes at stealCycles each, charged into
     * @p done whether or not a victim had work (youngest-first per
     * the Corey schedule::steal() design).
     */
    ServiceRequest *trySteal(CoreId core, Tick &done);
    /** Slack of @p req against its SLO budget (Slo policy). */
    std::int64_t laxityOf(const ServiceRequest &req) const;
    ReadyList::KeyFn laxityKey() const;
    /** @} */

    /** @name Degraded-mode dispatch @{ */
    /** Whether dispatch must avoid dead villages/links right now. */
    bool degradedDispatch() const;
    /**
     * Round-robin pick of a live village hosting @p service that is
     * reachable from @p from; invalidId when none survives.
     */
    VillageId pickReachableVillage(ServiceId service,
                                   EndpointId from);
    /**
     * NIC-level rejection (no reachable instance): the request never
     * enters the package; the error response is bounced straight
     * from the NIC at @p ready_at.
     */
    void shedRequest(ServiceRequest *req, Tick ready_at);
    /** @} */

    /** Send an ICN message and run @p fn on delivery; a non-null
     *  @p drop runs instead when the pair is partitioned. */
    void sendIcn(EndpointId src, EndpointId dst, std::uint32_t bytes,
                 MsgClass cls, Network::DeliverFn &&fn,
                 Network::DropFn &&drop = nullptr);

    /**
     * Structural conservation laws audited by the invariant checker
     * (registered at construction when a checker is active):
     * RQ occupancy arithmetic, idle-registry vs core Work flags,
     * dispatcher serialization, and link occupancy bounds. With
     * @p final set, additionally requires full network quiescence
     * and all cores idle.
     */
    void auditInvariants(InvariantChecker &ic, bool final) const;

    std::uint32_t queueOfVillage(VillageId v) const;
    bool sameL2(CoreId a, CoreId b) const;
};

} // namespace umany

#endif // UMANY_ARCH_MACHINE_HH
