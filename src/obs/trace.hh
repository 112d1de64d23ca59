/**
 * @file
 * Request-lifecycle tracing (the observability substrate).
 *
 * A TraceSink is a bounded, preallocated event buffer that the
 * simulation layers write fixed-size records into: request-state
 * spans (created -> queued -> running -> blocked-on-callgroup ->
 * ready -> finished/rejected), per-core segment durations,
 * context-switch and NoC-message instants, and sampled counters.
 * The Chrome trace_event exporter (obs/chrome_trace.hh) turns the
 * buffer into a file loadable in Perfetto / chrome://tracing.
 *
 * Cost model: tracing must be free when off.
 *  - Compile time: building with -DUMANY_TRACE_DISABLED=1 compiles
 *    every UMANY_TRACE() instrumentation site to nothing.
 *  - Run time: with no sink installed, a site is one thread-local
 *    pointer load and branch.
 * One EventQueue drives one run, but parallel sweeps (SweepRunner)
 * execute independent runs on worker threads concurrently, so the
 * active-sink pointer is thread-local: each run's sink sees exactly
 * that run's events, never a sibling point's.
 */

#ifndef UMANY_OBS_TRACE_HH
#define UMANY_OBS_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

// Compile-time kill switch for all instrumentation sites.
#ifndef UMANY_TRACE_DISABLED
#define UMANY_TRACE_DISABLED 0
#endif

#if UMANY_TRACE_DISABLED
#define UMANY_TRACE(stmt)                                            \
    do {                                                             \
    } while (false)
#else
/**
 * Guard an instrumentation statement: @p stmt runs only when a sink
 * is installed. The statement typically calls a helper below or a
 * TraceSink emitter via trace::sink().
 */
#define UMANY_TRACE(stmt)                                            \
    do {                                                             \
        if (::umany::TraceSink::active() != nullptr) {               \
            stmt;                                                    \
        }                                                            \
    } while (false)
#endif

namespace umany
{

enum class ReqState : std::uint8_t; // sched/request.hh
class ServiceRequest;

/** Event phases, mirroring Chrome trace_event semantics. */
enum class TracePhase : std::uint8_t
{
    SpanBegin, //!< Async span begin ('b'), keyed by (pid, id, name).
    SpanEnd,   //!< Async span end ('e').
    DurBegin,  //!< Thread-scoped duration begin ('B') on (pid, tid).
    DurEnd,    //!< Thread-scoped duration end ('E').
    Instant,   //!< Point event ('i').
    Counter,   //!< Sampled value ('C').
    FlowStart, //!< Flow arrow start ('s'), keyed by id.
    FlowEnd,   //!< Flow arrow end ('f', binds to enclosing slice).
};

/**
 * One fixed-size trace record. @c name must be a string literal (or
 * otherwise outlive the sink): records store the pointer only.
 */
struct TraceEvent
{
    Tick ts = 0;
    TracePhase phase = TracePhase::Instant;
    std::uint32_t pid = 0;   //!< Server (process track).
    std::uint64_t tid = 0;   //!< Track within the server; see below.
    const char *name = "";
    std::uint64_t id = 0;    //!< Async span key (request id).
    double value = 0.0;      //!< Counter value / payload bytes.
};

/**
 * @name Track-id conventions
 * Chrome tids are plain numbers; these offsets partition them into
 * readable tracks (the exporter emits matching thread_name
 * metadata). Villages are the low range.
 * @{
 */
constexpr std::uint64_t traceCoreTrackBase = 0x100000;
constexpr std::uint64_t traceSwqTrackBase = 0x200000;
constexpr std::uint64_t traceDispatcherTrack = 0x300000;
constexpr std::uint64_t traceNicTrack = 0x300001;
constexpr std::uint64_t traceIcnTrack = 0x300002;
constexpr std::uint64_t traceCounterTrack = 0x300003;
/** Client-side (load generator) recovery events: timeouts,
 *  retries, give-ups. The pid is the server the attempt targeted. */
constexpr std::uint64_t traceClientTrack = 0x300004;
/** Rack-scale tracks (src/rack), emitted on the rack pid: the
 *  front-end load balancer (replica selection, sheds, failovers,
 *  per-root lb.root spans) and the inter-package fabric (per-hop
 *  fabric.req / fabric.resp occupancy spans). */
constexpr std::uint64_t traceLbTrack = 0x300005;
constexpr std::uint64_t traceFabricTrack = 0x300006;

/**
 * Flow-id namespaces for the rack's cross-package stitches. The LB
 * keys each root's request-direction arrow (LB -> chosen package)
 * and response-direction arrow (package -> LB) by its rack context
 * id, tagged with a direction bit well above any context value so
 * neither collides with the per-request "rpc" flows inside a
 * package.
 */
constexpr std::uint64_t traceRackReqFlowBit = 1ull << 63;
constexpr std::uint64_t traceRackRespFlowBit = 1ull << 62;

constexpr std::uint64_t
traceVillageTrack(VillageId v)
{
    return v;
}

constexpr std::uint64_t
traceCoreTrack(CoreId c)
{
    return traceCoreTrackBase + c;
}

constexpr std::uint64_t
traceSwqTrack(std::uint32_t q)
{
    return traceSwqTrackBase + q;
}
/** @} */

/**
 * @name Track filtering
 * A filter is a bitmask over track categories; record() silently
 * skips events whose track is masked out (not counted as overflow
 * drops — the user asked for them to be absent).
 * @{
 */
constexpr std::uint32_t traceTrackVillage = 1u << 0;
constexpr std::uint32_t traceTrackCore = 1u << 1;
constexpr std::uint32_t traceTrackSwq = 1u << 2;
constexpr std::uint32_t traceTrackDispatcher = 1u << 3;
constexpr std::uint32_t traceTrackNic = 1u << 4;
constexpr std::uint32_t traceTrackIcn = 1u << 5;
constexpr std::uint32_t traceTrackCounters = 1u << 6;
constexpr std::uint32_t traceTrackClient = 1u << 7;
constexpr std::uint32_t traceTrackLb = 1u << 8;
constexpr std::uint32_t traceTrackFabric = 1u << 9;
constexpr std::uint32_t traceTrackAll = ~0u;

/** Number of distinct track categories (bits 0..N-1 above). */
constexpr std::size_t traceNumCategories = 10;

/** Category bit of a track id (see the conventions above). */
constexpr std::uint32_t
traceTrackCategory(std::uint64_t tid)
{
    if (tid < traceCoreTrackBase)
        return traceTrackVillage;
    if (tid < traceSwqTrackBase)
        return traceTrackCore;
    if (tid < traceDispatcherTrack)
        return traceTrackSwq;
    if (tid == traceDispatcherTrack)
        return traceTrackDispatcher;
    if (tid == traceNicTrack)
        return traceTrackNic;
    if (tid == traceIcnTrack)
        return traceTrackIcn;
    if (tid == traceCounterTrack)
        return traceTrackCounters;
    if (tid == traceClientTrack)
        return traceTrackClient;
    if (tid == traceLbTrack)
        return traceTrackLb;
    if (tid == traceFabricTrack)
        return traceTrackFabric;
    return traceTrackVillage;
}

/** Index of a category bit (0..traceNumCategories-1). */
constexpr std::size_t
traceCategoryIndex(std::uint32_t category_bit)
{
    std::size_t i = 0;
    while (i + 1 < traceNumCategories &&
           (category_bit & (1u << i)) == 0) {
        ++i;
    }
    return i;
}

/** Filter-token spelling of the category at @p index. */
const char *traceCategoryName(std::size_t index);

/**
 * Parse a comma-separated track list ("village,core,icn") into a
 * filter mask. Accepted tokens: village, core, swq, dispatcher,
 * nic, icn (alias: net), counters, client, lb, fabric, all.
 * Unknown tokens (typos) warn with the valid-token list and are
 * ignored; if nothing valid remains the filter falls back to "all"
 * rather than silently recording nothing.
 */
std::uint32_t parseTraceFilter(const std::string &spec);
/** @} */

class TraceSink;

/**
 * One-line "track 12, other 3" rendering of a sink's per-track drop
 * counters (empty when nothing was dropped) — the run-summary's
 * diagnosis of WHERE a truncated trace lost events.
 */
std::string traceDropBreakdown(const TraceSink &sink);

/**
 * The bounded event buffer.
 *
 * Overflow policy: the buffer is preallocated and records past
 * capacity are dropped (and counted) rather than overwriting older
 * ones — overwriting would orphan span-begin records and produce
 * unbalanced traces. Exporters must surface dropped() so a truncated
 * trace is never silently misleading.
 */
class TraceSink
{
  public:
    /** @param capacity Maximum number of retained events. */
    explicit TraceSink(std::size_t capacity = defaultCapacity);

    static constexpr std::size_t defaultCapacity = 1u << 20;

    /** Append one record (drops and counts when full). */
    void
    record(const TraceEvent &e)
    {
        const std::uint32_t cat = traceTrackCategory(e.tid);
        if ((filter_ & cat) == 0)
            return;
        if (buf_.size() >= cap_) {
            ++dropped_;
            ++droppedByCat_[traceCategoryIndex(cat)];
            return;
        }
        buf_.push_back(e);
    }

    /** @name Convenience emitters @{ */
    void
    spanBegin(Tick ts, std::uint32_t pid, std::uint64_t tid,
              const char *name, std::uint64_t id)
    {
        record({ts, TracePhase::SpanBegin, pid, tid, name, id, 0.0});
    }

    void
    spanEnd(Tick ts, std::uint32_t pid, std::uint64_t tid,
            const char *name, std::uint64_t id)
    {
        record({ts, TracePhase::SpanEnd, pid, tid, name, id, 0.0});
    }

    void
    durBegin(Tick ts, std::uint32_t pid, std::uint64_t tid,
             const char *name, std::uint64_t id)
    {
        record({ts, TracePhase::DurBegin, pid, tid, name, id, 0.0});
    }

    void
    durEnd(Tick ts, std::uint32_t pid, std::uint64_t tid,
           const char *name, std::uint64_t id)
    {
        record({ts, TracePhase::DurEnd, pid, tid, name, id, 0.0});
    }

    void
    instant(Tick ts, std::uint32_t pid, std::uint64_t tid,
            const char *name, std::uint64_t id = 0,
            double value = 0.0)
    {
        record({ts, TracePhase::Instant, pid, tid, name, id, value});
    }

    void
    counter(Tick ts, std::uint32_t pid, const char *name,
            double value)
    {
        record({ts, TracePhase::Counter, pid, traceCounterTrack,
                name, 0, value});
    }

    /** Flow arrow start: parent's side of an RPC edge. */
    void
    flowStart(Tick ts, std::uint32_t pid, std::uint64_t tid,
              const char *name, std::uint64_t id)
    {
        record({ts, TracePhase::FlowStart, pid, tid, name, id, 0.0});
    }

    /** Flow arrow end: the child's side of the same edge. */
    void
    flowEnd(Tick ts, std::uint32_t pid, std::uint64_t tid,
            const char *name, std::uint64_t id)
    {
        record({ts, TracePhase::FlowEnd, pid, tid, name, id, 0.0});
    }
    /** @} */

    /** @name Introspection @{ */
    const std::vector<TraceEvent> &events() const { return buf_; }
    std::size_t capacity() const { return cap_; }
    /** Events rejected because the buffer was full. */
    std::uint64_t dropped() const { return dropped_; }
    /** Overflow drops broken down by track category (indexed by
     *  traceCategoryIndex; names via traceCategoryName) so a
     *  truncated trace says WHICH tracks it lost. */
    const std::array<std::uint64_t, traceNumCategories> &
    droppedByCategory() const
    {
        return droppedByCat_;
    }
    /** Events accepted into the buffer. */
    std::uint64_t recorded() const { return buf_.size(); }
    /** @} */

    /** @name Track filter (default: record everything) @{ */
    void setFilter(std::uint32_t mask) { filter_ = mask; }
    std::uint32_t filter() const { return filter_; }
    /** @} */

    /**
     * @name Pid namespace (rack runs)
     * A flat sink names process @c pid "serverN". Rack runs carve
     * the pid space into per-package blocks of @p stride servers
     * (pid = pkg * stride + server, named "pkgN.serverM") with one
     * extra pid at stride * packages for the rack substrate (the LB
     * and fabric tracks, named "rack"). Zero stride (the default)
     * keeps the flat namespace and its exporter bytes.
     * @{
     */
    void
    setPidNamespace(std::uint32_t stride, std::uint32_t packages)
    {
        pidStride_ = stride;
        pidPackages_ = packages;
    }
    std::uint32_t pidStride() const { return pidStride_; }
    std::uint32_t pidPackages() const { return pidPackages_; }
    /** @} */

    /** @name The installed (active) sink @{ */
    static TraceSink *active() { return active_; }
    /**
     * Install @p s as this thread's sink (nullptr disables). The
     * binding is thread-local so concurrent sweep points trace in
     * isolation; install on the thread that runs the simulation.
     */
    static void install(TraceSink *s) { active_ = s; }
    /** @} */

  private:
    std::vector<TraceEvent> buf_;
    std::size_t cap_;
    std::uint64_t dropped_ = 0;
    std::array<std::uint64_t, traceNumCategories> droppedByCat_{};
    std::uint32_t filter_ = traceTrackAll;
    std::uint32_t pidStride_ = 0;
    std::uint32_t pidPackages_ = 0;

    static inline thread_local TraceSink *active_ = nullptr;
};

/**
 * RAII installer: installs a sink for one scope (an experiment run)
 * and restores the previous one on exit.
 */
class ScopedTrace
{
  public:
    explicit ScopedTrace(TraceSink &sink) : prev_(TraceSink::active())
    {
        TraceSink::install(&sink);
    }
    ~ScopedTrace() { TraceSink::install(prev_); }

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

  private:
    TraceSink *prev_;
};

/**
 * @name Request-lifecycle helpers
 * State spans are async events keyed by the request id, named after
 * the state, on the request's current server/village — so one root
 * request (and its RPC children, which have their own ids) can be
 * walked across villages and servers in the trace viewer.
 * @{
 */

/**
 * The request was created and bound to server @p pid (a
 * package-local server id; @p pid_base shifts it — and the parent's
 * flow-arrow pid — into the owning package's pid block on racks).
 */
void traceReqCreated(Tick ts, const ServiceRequest &req,
                     std::uint32_t pid, std::uint32_t pid_base = 0);

/**
 * The request is about to move from its current state to @p next.
 * Call immediately BEFORE assigning req.state. Ends the current
 * state's span; begins @p next's (terminal states instead emit an
 * instant so every begun span is ended). @p pid_base as above.
 */
void traceReqTransition(Tick ts, const ServiceRequest &req,
                        ReqState next, std::uint32_t pid_base = 0);
/** @} */

} // namespace umany

#endif // UMANY_OBS_TRACE_HH
