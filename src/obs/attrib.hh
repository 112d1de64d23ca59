/**
 * @file
 * Tail-latency attribution: the per-request latency ledger.
 *
 * Every tick of a request's life is charged to exactly one component
 * of a fixed taxonomy (NIC dispatch, RQ wait, context switch, service
 * execution, coherence stalls, per-layer ICN hops, blocked-on-child,
 * retry/backoff). The ledger is a checkpoint charger: each record
 * remembers the timestamp of its last charge and `charge(c, ts)`
 * assigns the interval [lastTs, ts] to component c, so the components
 * sum to end-to-end latency by construction — a property the
 * invariant checker asserts for every completed root.
 *
 * Attribution follows the TraceSink pattern: a thread-local active
 * registry, a scoped installer, and a statement macro that compiles
 * to a single pointer test when enabled and to nothing when
 * UMANY_ATTRIB_DISABLED is defined. It consumes no randomness and
 * schedules no events, so enabling it cannot perturb a simulation.
 */

#ifndef UMANY_OBS_ATTRIB_HH
#define UMANY_OBS_ATTRIB_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/object_pool.hh"
#include "sim/types.hh"
#include "stats/histogram.hh"

namespace umany
{

class ServiceRequest;

/** The attribution taxonomy. Order is the reporting order. */
enum class AttribComp : std::uint8_t
{
    NicDispatch,    //!< NIC ingress/egress, rx/tx core time, dispatch.
    RqWait,         //!< Waiting in an RQ / software queue.
    CtxSwitch,      //!< Save/restore, dequeue, dispatcher serialization.
    ServiceExec,    //!< Handler segments on a core (reference work).
    CoherenceStall, //!< Directory-stall inflation of segments.
    IcnQueue,       //!< ICN link contention (queued behind busy links).
    IcnAccess,      //!< ICN hops on access links (endpoint attach).
    IcnLeaf,        //!< ICN hops on first-level switch links.
    IcnSpine,       //!< ICN hops on second-level (spine/core) links.
    IcnCore,        //!< ICN hops above the spine (reserved).
    IcnOther,       //!< ICN residual: degraded delivery, retransmit.
    BlockedOnChild, //!< Blocked on child RPC / storage responses.
    RetryBackoff,   //!< Client-side retry wait before this attempt.
    PkgHop,         //!< Inter-package network hops (rack scale).
};

inline constexpr std::size_t kNumAttribComps = 14;

/** Stable machine-readable name ("rq_wait", "icn_leaf", ...). */
const char *attribCompName(AttribComp c);

/** Number of ICN levels folded into IcnAccess..IcnCore. */
inline constexpr std::size_t kIcnLevels = 4;

/**
 * Per-delivery ICN time decomposition, filled by the Network while
 * attribution is active and read synchronously from deliver
 * callbacks. `queued` is contention wait; `level[i]` is propagation
 * plus serialization on links of topology level i.
 */
struct IcnDeliveryDetail
{
    Tick queued = 0;
    std::array<Tick, kIcnLevels> level{};
    bool valid = false;
};

/** The ledger of one request, plus its place in the span tree. */
struct AttribRecord
{
    RequestId id = 0;
    RequestId parent = 0; //!< 0 for roots.
    ServiceId service = invalidId;
    ServiceId rootEndpoint = invalidId; //!< Roots only.
    ServerId server = invalidId;
    std::size_t group = 0; //!< Parent call group this child belongs to.
    Tick startedAt = 0;    //!< First client submit (includes retries).
    Tick createdAt = 0;    //!< This attempt's creation.
    Tick resolvedAt = 0;   //!< When the issuer saw the resolution.
    Tick lastTs = 0;       //!< Checkpoint for the next charge.
    /** Client-observed root latency (set by markRootObserved). At
     *  rack scale this includes the egress hop, which lands after
     *  the package resolves the request, so it is not derivable
     *  from resolvedAt - startedAt. */
    Tick observedLatency = 0;
    bool resolved = false;
    bool observed = false; //!< Root completed inside the window.
    std::array<Tick, kNumAttribComps> comp{};
    /** Child records, owned by the same registry. */
    std::vector<AttribRecord *> children;

    /** Return every field to its default, keeping the capacity of
     *  children (a recycled record's next life). */
    void reset()
    {
        std::vector<AttribRecord *> kept = std::move(children);
        kept.clear();
        *this = AttribRecord{};
        children = std::move(kept);
    }

    /** Charge [lastTs, ts] to c and advance the checkpoint. */
    void charge(AttribComp c, Tick ts)
    {
        if (ts <= lastTs)
            return;
        comp[static_cast<std::size_t>(c)] += ts - lastTs;
        lastTs = ts;
    }

    Tick total() const
    {
        Tick t = 0;
        for (const Tick c : comp)
            t += c;
        return t;
    }
};

/**
 * Owns every live AttribRecord and the per-request aggregate
 * histograms. One registry per experiment; installed thread-local so
 * sweep points on different threads do not interfere. Records come
 * from a pool the registry owns: a released tree's records are
 * recycled, so a steady state allocates none.
 */
class AttribRegistry
{
  public:
    AttribRegistry();
    ~AttribRegistry();

    static AttribRegistry *active() { return active_; }
    static void install(AttribRegistry *r) { active_ = r; }

    /** @name Lifecycle hooks (called from sched/rpc/noc sites) @{ */
    /** Create the record and link it under its parent. */
    void onCreate(ServiceRequest &req, Tick now);
    /** Charge [lastTs, ts] of req's ledger to component c. */
    void charge(ServiceRequest &req, AttribComp c, Tick ts);
    /** Split [lastTs, now] across ICN components using d. */
    void chargeIcn(ServiceRequest &req, const IcnDeliveryDetail &d,
                   Tick now);
    /** Record final placement (server/village) once known. */
    void notePlacement(ServiceRequest &req);
    /**
     * Account the retry wait of a recovered root: extends the ledger
     * back to the task's first submit so the total matches the
     * client-observed latency.
     */
    void noteRetryWait(ServiceRequest &req, Tick first_submit);
    /**
     * Account the inter-package hops of a rack-routed root: extends
     * the ledger back to the load balancer's arrival tick
     * @p client_start and charges @p hop_ticks (ingress + egress
     * rack-fabric time) to PkgHop, so the ledger still sums to the
     * client-observed latency at rack scale.
     */
    void noteInterPackageHop(ServiceRequest &req, Tick client_start,
                             Tick hop_ticks);
    /**
     * Mark a root as completed inside the measurement window with
     * the client-observed latency; checks the ledger-sum invariant
     * and stages the tree for profiler ingestion on destroy.
     */
    void markRootObserved(ServiceRequest &req, Tick latency);
    /**
     * Final hook when the simulator frees a request. Children are
     * kept until their root is destroyed; destroying a root releases
     * the whole tree (ingesting it first if observed).
     */
    void onDestroy(ServiceRequest &req, Tick now);
    /** Fold a finished request's ledger into the aggregates. */
    void accumulate(const ServiceRequest &req);
    /** @} */

    /** @name Introspection @{ */
    std::size_t liveRecords() const { return pool_.live(); }
    std::uint64_t accumulated() const { return accumulated_; }
    std::uint64_t rootsObserved() const { return rootsObserved_; }
    /** Roots whose ledger total missed the latency by > 1 tick. */
    std::uint64_t ledgerMismatches() const { return mismatches_; }
    /** Per-request component histogram (ticks), reporting order. */
    const Histogram &componentTicks(AttribComp c) const
    {
        return perReqTicks_[static_cast<std::size_t>(c)];
    }
    class TailProfiler &profiler() { return *profiler_; }
    const class TailProfiler &profiler() const { return *profiler_; }
    /** @} */

    void setTopK(std::size_t k);

  private:
    /** Return @p root and every record below it to the pool. */
    void releaseTree(AttribRecord *root);

    static inline thread_local AttribRegistry *active_ = nullptr;

    ObjectPool<AttribRecord> pool_;
    /** releaseTree()'s walk, kept for its capacity. */
    std::vector<AttribRecord *> stack_;
    std::array<Histogram, kNumAttribComps> perReqTicks_;
    std::uint64_t accumulated_ = 0;
    std::uint64_t rootsObserved_ = 0;
    std::uint64_t mismatches_ = 0;
    std::unique_ptr<class TailProfiler> profiler_;
};

/** RAII installer, mirroring ScopedTrace. */
class ScopedAttrib
{
  public:
    explicit ScopedAttrib(AttribRegistry *r)
        : prev_(AttribRegistry::active())
    {
        AttribRegistry::install(r);
    }
    ~ScopedAttrib() { AttribRegistry::install(prev_); }
    ScopedAttrib(const ScopedAttrib &) = delete;
    ScopedAttrib &operator=(const ScopedAttrib &) = delete;

  private:
    AttribRegistry *prev_;
};

/**
 * Statement wrapper: runs `stmt` only when a registry is installed.
 * Compiles to nothing under UMANY_ATTRIB_DISABLED.
 */
#ifdef UMANY_ATTRIB_DISABLED
#define UMANY_ATTRIB(stmt)                                            \
    do {                                                              \
    } while (false)
#else
#define UMANY_ATTRIB(stmt)                                            \
    do {                                                              \
        if (::umany::AttribRegistry::active() != nullptr) {           \
            stmt;                                                     \
        }                                                             \
    } while (false)
#endif

} // namespace umany

#endif // UMANY_OBS_ATTRIB_HH
