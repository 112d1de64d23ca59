/**
 * @file
 * RackSim: N independent μManycore packages (each a ClusterSim)
 * behind a front-end load balancer, connected by an inter-package
 * RackNet (ROADMAP "Multi-package / rack-scale scenarios").
 *
 * The load balancer owns replica selection: each endpoint is placed
 * on R packages (rack/placement.hh) and the LB picks one per root
 * using the dispatch-policy zoo (sched/dispatch_policy.hh) over a
 * package-level occupancy signal — rr walks the replicas, po2c and
 * jsqd probe the LB's own in-flight count per package. Chosen roots
 * cross the RackNet to their package, run there exactly as a
 * single-package root would (including client-side recovery at the
 * package boundary), and their responses cross back; the package
 * records the client-observed latency (package latency + both
 * hops), so merging package histograms yields rack latencies and
 * the attribution ledger still sums by construction (the hops land
 * in AttribComp::PkgHop).
 *
 * With one package the rack layer is inert: submits forward
 * synchronously, no context is allocated, no hop is charged, and
 * every result is byte-identical to a bare ClusterSim run.
 */

#ifndef UMANY_RACK_RACK_SIM_HH
#define UMANY_RACK_RACK_SIM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/cluster_sim.hh"
#include "rack/placement.hh"
#include "rack/rack_net.hh"
#include "sched/dispatch_policy.hh"

namespace umany
{

/** Rack-level configuration. */
struct RackSimParams
{
    /** Packages in the rack (1 = rack layer disabled). */
    std::uint32_t packages = 2;
    /** Replicas per endpoint (0 = every package). */
    std::uint32_t replicas = 0;
    /** LB replica-selection policy (rr, po2c, or jsqd only). */
    DispatchPolicyParams replica;
    /** Inter-package fabric design point. */
    RackNetKind net = RackNetKind::Rdma;
    /**
     * Whether the LB routes around packages marked down
     * (FaultKind::PackageDown). Off = the LB keeps dispatching into
     * dead packages (the no-failover baseline).
     */
    bool failover = true;
    /** Per-package configuration. Package 0 keeps cluster.seed
     *  verbatim; package p > 0 reseeds via rngstream::package + p,
     *  and every package p gets a disjoint request-id base. */
    ClusterSimParams cluster;
};

/** The simulated rack. */
class RackSim
{
  public:
    /**
     * @param machines Per-package machine parameters: one entry
     * applies to every package; @p packages entries give each
     * package its own (heterogeneous racks).
     */
    RackSim(EventQueue &eq, const ServiceCatalog &catalog,
            const std::vector<MachineParams> &machines,
            const RackSimParams &p);
    ~RackSim();

    RackSim(const RackSim &) = delete;
    RackSim &operator=(const RackSim &) = delete;

    /** Submit one root through the load balancer. */
    void submitRoot(ServiceId endpoint);

    /** Enable/disable latency recording (off during warmup). */
    void setRecording(bool on);

    /** Per-endpoint QoS thresholds, forwarded to every package. */
    void setQosThreshold(ServiceId endpoint, Tick threshold);

    /**
     * Mark a package down/up at the load balancer (the LB-visible
     * half of FaultKind::PackageDown; FaultInjector::arm(RackSim&)
     * also fails the villages inside).
     */
    void setPackageDown(std::uint32_t pkg, bool down);
    bool packageAlive(std::uint32_t pkg) const { return alive_[pkg]; }

    /** @name Rack-level counters @{ */
    /** Roots the LB could not place (all replicas down). */
    std::uint64_t lbShedRoots() const { return lbShedRoots_; }
    /** Dispatches that routed around at least one down replica. */
    std::uint64_t failovers() const { return failovers_; }
    /** Roots dispatched to @p pkg. */
    std::uint64_t lbDispatches(std::uint32_t pkg) const
    {
        return lbDispatches_[pkg];
    }
    /** Inter-package hop ticks per completed rack root. */
    const Histogram &pkgHopTicks() const { return pkgHopTicks_; }
    /** Queueing share of the hop (link contention at either end),
     *  per completed root dispatched to @p pkg. */
    const Histogram &hopQueueTicks(std::uint32_t pkg) const
    {
        return hopQueueTicks_[pkg];
    }
    /** Unloaded-transit share of the hop (overheads, serialization,
     *  propagation), per completed root dispatched to @p pkg. */
    const Histogram &hopTransitTicks(std::uint32_t pkg) const
    {
        return hopTransitTicks_[pkg];
    }
    /** LB's current in-flight count per package (the po2c/jsqd
     *  occupancy signal). */
    std::uint64_t inflight(std::uint32_t pkg) const
    {
        return inflight_[pkg];
    }
    std::uint64_t policyProbes() const
    {
        return policy_ ? policy_->probesIssued() : 0;
    }
    /** @} */

    /** @name Aggregated package counters (LB sheds included) @{ */
    std::uint64_t completedRoots() const;
    std::uint64_t rejectedRoots() const;
    std::uint64_t qosViolations() const;
    std::uint64_t observedRoots() const;
    std::uint64_t requestsInFlight() const;
    /** Merged across packages; latencies are client-observed. */
    Histogram allLatency() const;
    Histogram endpointLatency(ServiceId endpoint) const;
    /** @} */

    std::uint32_t numPackages() const
    {
        return static_cast<std::uint32_t>(pkgs_.size());
    }
    /** Trace pids per package block (0 when the rack is inert). */
    std::uint32_t tracePidStride() const { return pidStride_; }
    /** Trace pid of the rack substrate (LB + fabric tracks). */
    std::uint32_t rackTracePid() const { return rackPid_; }
    ClusterSim &package(std::uint32_t p) { return *pkgs_[p]; }
    const RackNet &net() const { return *net_; }
    const RackPlacement &placement() const { return *placement_; }
    const RackSimParams &params() const { return p_; }
    const ServiceCatalog &catalog() const { return catalog_; }

  private:
    /** One dispatched root the LB is waiting on. */
    struct PendingRoot
    {
        Tick lbArrival = 0; //!< When the root reached the LB.
        Tick submitAt = 0;  //!< When it enters its package.
        Tick reqQueue = 0;  //!< Queueing share of the request hop.
        std::uint32_t pkg = 0;
        ServiceId endpoint = 0;
    };

    EventQueue &eq_;
    const ServiceCatalog &catalog_;
    RackSimParams p_;
    std::vector<std::unique_ptr<ClusterSim>> pkgs_;
    std::unique_ptr<RackNet> net_;
    std::unique_ptr<RackPlacement> placement_;
    std::unique_ptr<NicDispatchPolicy> policy_; //!< po2c/jsqd only.
    std::vector<bool> alive_;
    std::vector<std::uint64_t> inflight_;
    std::vector<std::uint64_t> lbDispatches_;
    std::vector<std::uint32_t> candScratch_;
    std::unordered_map<std::uint64_t, PendingRoot> ctxs_;
    std::uint64_t nextCtx_ = 1;
    std::uint64_t rrCursor_ = 0;
    std::uint64_t lbShedRoots_ = 0;
    std::uint64_t failovers_ = 0;
    Histogram pkgHopTicks_;
    std::vector<Histogram> hopQueueTicks_;
    std::vector<Histogram> hopTransitTicks_;
    bool recording_ = true;
    /** Trace pid layout (racked runs only): package p owns pids
     *  [p*pidStride_, (p+1)*pidStride_); the LB and fabric tracks
     *  live on the rack-substrate pid one block past the last
     *  package. 0 when the rack layer is inert. */
    std::uint32_t pidStride_ = 0;
    std::uint32_t rackPid_ = 0;

    ClusterSim::RackRootInfo onRootDone(std::uint32_t pkg,
                                        ServiceRequest *req,
                                        std::uint64_t ctx,
                                        Tick pkg_latency,
                                        bool completed);
};

} // namespace umany

#endif // UMANY_RACK_RACK_SIM_HH
