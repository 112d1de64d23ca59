/**
 * @file
 * Runtime invariant checker: conservation laws the simulator must
 * obey at every point of a run — every enqueued request is dequeued
 * and completed exactly once, RQ occupancy matches its admission
 * arithmetic, no network Flight outlives its message, link occupancy
 * never exceeds wall-clock at quiescence, and core Work flags stay
 * consistent with the idle registries.
 *
 * The checker follows the TraceSink pattern: hooks in the hot path
 * are wrapped in UMANY_INVARIANT(...) and guard on a thread-local
 * active-checker pointer, so a run without an installed checker pays
 * one branch per hook — and Release builds (NDEBUG, unless the
 * UMANY_INVARIANTS CMake option forces otherwise) compile the hooks
 * out entirely, leaving the optimized event kernel untouched. The
 * checker class itself is always compiled so it can be unit-tested
 * in any build type.
 */

#ifndef UMANY_VALIDATE_INVARIANTS_HH
#define UMANY_VALIDATE_INVARIANTS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

/**
 * Compile-time gate for the hooks. Defaults to on exactly when
 * assertions are on (no NDEBUG); the UMANY_INVARIANTS CMake option
 * overrides in either direction.
 */
#ifndef UMANY_INVARIANTS_ENABLED
#ifdef NDEBUG
#define UMANY_INVARIANTS_ENABLED 0
#else
#define UMANY_INVARIANTS_ENABLED 1
#endif
#endif

#if UMANY_INVARIANTS_ENABLED
#define UMANY_INVARIANT(stmt)                                         \
    do {                                                              \
        if (::umany::InvariantChecker::active() != nullptr) {         \
            stmt;                                                     \
        }                                                             \
    } while (false)
#else
#define UMANY_INVARIANT(stmt)                                         \
    do {                                                              \
    } while (false)
#endif

namespace umany
{

class ServiceRequest;

/**
 * Tracks the lifecycle of every request flowing through one
 * simulation and audits the structural state of its components
 * (queues, dispatcher, network) every @c auditPeriod lifecycle
 * events. Install with ScopedInvariants; components register
 * auditors at construction time via addAuditor()/addFinalAuditor().
 *
 * By default a violation panics at the offending site (the most
 * useful behavior under a debugger); tests that provoke violations
 * on purpose call setAbortOnViolation(false) and inspect
 * violations() instead.
 *
 * The checker must not outlive the simulation its auditors point
 * into unless clearAuditors() is called first.
 */
class InvariantChecker
{
  public:
    using AuditFn = std::function<void(InvariantChecker &)>;

    explicit InvariantChecker(std::uint64_t auditPeriod = 4096);

    /** The checker installed on this thread (nullptr when none). */
    static InvariantChecker *active();

    /** @name Request lifecycle hooks
     *  Legal order: enqueue -> dequeue -> (block -> enqueue)* ->
     *  complete -> destroy, or enqueue -> reject -> destroy, or
     *  reject -> destroy (shed at the NIC before any enqueue).
     *  @{ */
    void onEnqueue(const ServiceRequest &req);
    void onDequeue(const ServiceRequest &req);
    void onBlock(const ServiceRequest &req);
    void onComplete(const ServiceRequest &req);
    void onReject(const ServiceRequest &req);
    void onDestroy(const ServiceRequest &req);
    /**
     * A queued request moved to another queue without being
     * dequeued (work stealing): phase stays Queued, no count
     * changes — stealing is a relocation, not a lifecycle step.
     */
    void onSteal(const ServiceRequest &req);
    /** @} */

    /** @name Network flight hooks @{ */
    void onNetSend();
    void onNetDeliver();
    void onNetDrop();
    /** @} */

    /** Register a periodic structural audit (runs every N events). */
    void addAuditor(std::string name, AuditFn fn);

    /** Register an audit that only runs at finalCheck() time. */
    void addFinalAuditor(std::string name, AuditFn fn);

    /** Drop all auditors (before their targets are destroyed). */
    void clearAuditors();

    /** Run every periodic auditor now. */
    void runAudits();

    /**
     * End-of-run quiescence check: call after the event queue has
     * drained, while the simulation is still alive. Verifies every
     * request was destroyed, every network flight delivered, and
     * runs the final auditors.
     */
    void finalCheck();

    /** Record a violation when @p cond is false (printf-style). */
#if defined(__GNUC__)
    __attribute__((format(printf, 3, 4)))
#endif
    void expect(bool cond, const char *fmt, ...);

    std::size_t liveRequests() const { return reqs_.size(); }
    std::uint64_t hookEvents() const { return events_; }
    std::uint64_t steals() const { return steals_; }
    std::uint64_t auditRuns() const { return auditRuns_; }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }
    void setAbortOnViolation(bool abort) { abortOnViolation_ = abort; }

  private:
    friend class ScopedInvariants;

    /** Where a tracked request currently is. */
    enum class Ph : std::uint8_t
    {
        Queued,
        Running,
        Blocked,
        Completed,
        Rejected,
    };

    struct ReqTrack
    {
        Ph phase = Ph::Queued;
        std::uint32_t enqueues = 0;
        std::uint32_t dequeues = 0;
        std::uint32_t completes = 0;
    };

    static inline thread_local InvariantChecker *active_ = nullptr;

    std::uint64_t auditPeriod_;
    bool abortOnViolation_ = true;
    std::uint64_t events_ = 0;
    std::uint64_t auditRuns_ = 0;
    std::uint64_t netSent_ = 0;
    std::uint64_t netDelivered_ = 0;
    std::uint64_t netDropped_ = 0;
    std::uint64_t steals_ = 0;
    std::unordered_map<RequestId, ReqTrack> reqs_;
    std::vector<std::pair<std::string, AuditFn>> auditors_;
    std::vector<std::pair<std::string, AuditFn>> finalAuditors_;
    std::vector<std::string> violations_;

    ReqTrack *track(const ServiceRequest &req, const char *hook);
    void violation(const std::string &msg);
    void countEvent();
};

/** RAII installer: makes @p c the active checker on this thread. */
class ScopedInvariants
{
  public:
    explicit ScopedInvariants(InvariantChecker &c)
        : prev_(InvariantChecker::active_)
    {
        InvariantChecker::active_ = &c;
    }

    ~ScopedInvariants() { InvariantChecker::active_ = prev_; }

    ScopedInvariants(const ScopedInvariants &) = delete;
    ScopedInvariants &operator=(const ScopedInvariants &) = delete;

  private:
    InvariantChecker *prev_;
};

} // namespace umany

#endif // UMANY_VALIDATE_INVARIANTS_HH
