#include "driver/experiment.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>

#include "driver/report.hh"
#include "fault/injector.hh"
#include "obs/attrib.hh"
#include "obs/chrome_trace.hh"
#include "obs/json.hh"
#include "obs/sampler.hh"
#include "obs/simprof.hh"
#include "rack/rack_experiment.hh"
#include "rack/rack_sampler.hh"
#include "sim/logging.hh"
#include "stats/metrics_registry.hh"
#include "validate/invariants.hh"

namespace umany
{

namespace
{

/** Map a service id to its catalog name (ids past the catalog keep
 *  the numeric fallback the profiler would use anyway). */
ServiceNamer
catalogNamer(const ServiceCatalog &catalog)
{
    return [&catalog](ServiceId s) -> std::string {
        if (s == invalidId ||
            static_cast<std::size_t>(s) >= catalog.size()) {
            return strprintf("service%u",
                             static_cast<unsigned>(s));
        }
        return catalog.at(s).name;
    };
}

/**
 * Run to @p limit with a host-time progress heartbeat on stderr.
 * The heartbeat interleaves via the kernel's event budget, so the
 * hot path stays untouched: the host clock is read once per chunk
 * of events, not per event. stdout stays byte-identical either way.
 */
bool
runWithProgress(EventQueue &eq, Tick limit, double progress_sec)
{
    if (progress_sec <= 0.0)
        return eq.runUntil(limit);

    using HostClock = std::chrono::steady_clock;
    constexpr std::uint64_t chunkEvents = 1u << 17;
    const auto period = std::chrono::duration<double>(progress_sec);
    const HostClock::time_point start = HostClock::now();
    HostClock::time_point lastBeat = start;
    std::uint64_t lastEvents = eq.dispatched();
    for (;;) {
        const EventQueue::RunResult r =
            eq.runUntil(limit, chunkEvents);
        if (r == EventQueue::RunResult::Drained)
            return true;
        if (r == EventQueue::RunResult::Limited)
            return false;
        const HostClock::time_point t = HostClock::now();
        if (t - lastBeat < period)
            continue;
        const double window =
            std::chrono::duration<double>(t - lastBeat).count();
        const double elapsed =
            std::chrono::duration<double>(t - start).count();
        const std::uint64_t events = eq.dispatched();
        const double rate =
            window > 0.0
                ? static_cast<double>(events - lastEvents) / window
                : 0.0;
        std::fprintf(stderr,
                     "[progress] sim %9.3f ms | events %12llu | "
                     "%8.3f Mev/s | queue %8zu | host %7.1f s\n",
                     toMs(eq.now()),
                     static_cast<unsigned long long>(events),
                     rate / 1e6, eq.size(), elapsed);
        lastBeat = t;
        lastEvents = events;
    }
}

/** Split "pkgN.rest" into (N, rest); false when not pkg-scoped. */
bool
splitPkgStat(const std::string &name, std::uint32_t &pkg,
             std::string &rest)
{
    if (name.compare(0, 3, "pkg") != 0)
        return false;
    std::size_t i = 3;
    std::uint32_t n = 0;
    while (i < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[i]))) {
        n = n * 10 + static_cast<std::uint32_t>(name[i] - '0');
        ++i;
    }
    if (i == 3 || i >= name.size() || name[i] != '.')
        return false;
    pkg = n;
    rest = name.substr(i + 1);
    return true;
}

/**
 * The "rack" section spliced into the tail-profile JSON: packages
 * ranked sickest-first — by rejected fraction, then P99.9 — with
 * each package's hop split (LB-queueing vs fabric-transit) and its
 * ledger components ranked over the retained tail captures. Under
 * an injected PackageDown, worst_package names the dead package:
 * its stranded roots give up as rejections, so the rejected
 * fraction singles it out even though no completion recorded a slow
 * latency there.
 */
std::string
rackTailJson(RackSim &rack, const TailProfiler &prof)
{
    // Captures group by the package that ran them: rack request-id
    // bases put the package index in bits 44+ of every root id.
    const auto grouped = prof.groupedTail([](RequestId id) {
        return static_cast<std::uint64_t>(id >> 44);
    });

    struct PkgRank
    {
        std::uint32_t pkg = 0;
        double rejFrac = 0.0;
        Tick p999 = 0;
    };
    std::vector<PkgRank> ranked;
    ranked.reserve(rack.numPackages());
    for (std::uint32_t p = 0; p < rack.numPackages(); ++p) {
        ClusterSim &cs = rack.package(p);
        PkgRank r;
        r.pkg = p;
        const std::uint64_t observed = cs.observedRoots();
        r.rejFrac =
            observed ? static_cast<double>(cs.rejectedRoots()) /
                           static_cast<double>(observed)
                     : 0.0;
        r.p999 = cs.allLatency().quantile(0.999);
        ranked.push_back(r);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const PkgRank &a, const PkgRank &b) {
        if (a.rejFrac != b.rejFrac)
            return a.rejFrac > b.rejFrac;
        return a.p999 > b.p999;
    });

    JsonWriter w;
    w.beginObject();
    w.key("worst_package").value(
        static_cast<std::uint64_t>(ranked.front().pkg));
    w.key("packages").beginArray();
    for (const PkgRank &r : ranked) {
        ClusterSim &cs = rack.package(r.pkg);
        w.beginObject();
        w.key("package").value(static_cast<std::uint64_t>(r.pkg));
        w.key("observed").value(cs.observedRoots());
        w.key("completed").value(cs.completedRoots());
        w.key("rejected").value(cs.rejectedRoots());
        w.key("rejected_fraction").value(r.rejFrac);
        w.key("latency_p999_us").value(toUs(r.p999));
        w.key("lb_dispatches").value(rack.lbDispatches(r.pkg));
        const Histogram &hq = rack.hopQueueTicks(r.pkg);
        const Histogram &ht = rack.hopTransitTicks(r.pkg);
        w.key("hop_queue_us").beginObject();
        w.key("mean").value(hq.count() ? hq.mean() / tickPerUs
                                       : 0.0);
        w.key("p99").value(toUs(hq.p99()));
        w.endObject();
        w.key("hop_transit_us").beginObject();
        w.key("mean").value(ht.count() ? ht.mean() / tickPerUs
                                       : 0.0);
        w.key("p99").value(toUs(ht.p99()));
        w.endObject();
        w.key("tail_components").beginArray();
        const auto git = grouped.find(r.pkg);
        if (git != grouped.end()) {
            std::vector<std::pair<AttribComp, Tick>> comps;
            comps.reserve(kNumAttribComps);
            for (std::size_t i = 0; i < kNumAttribComps; ++i) {
                comps.emplace_back(static_cast<AttribComp>(i),
                                   git->second[i]);
            }
            std::stable_sort(comps.begin(), comps.end(),
                             [](const auto &a, const auto &b) {
                return a.second > b.second;
            });
            for (const auto &[c, ticks] : comps) {
                if (ticks == 0)
                    break;
                w.beginObject();
                w.key("component").value(attribCompName(c));
                w.key("us").value(toUs(ticks));
                w.endObject();
            }
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

/**
 * Rack-level metrics: merged (client-observed) latency histograms,
 * counters summed across packages plus LB sheds, utilizations
 * averaged over every server in the rack with link utilization
 * weighted by fabric-link count.
 */
RunMetrics
collectRackMetrics(RackSim &rack, const ServiceCatalog &catalog,
                   Tick measure_time, double offered_rps)
{
    if (rack.numPackages() == 1) {
        // Inert rack: the single-package collector keeps the FP
        // summation order (and thus every golden byte).
        return collectMetrics(rack.package(0), catalog,
                              measure_time, offered_rps);
    }

    RunMetrics m;
    for (const ServiceId ep : catalog.endpoints()) {
        m.perEndpoint[catalog.at(ep).name] =
            latencyStatsFrom(rack.endpointLatency(ep));
    }
    m.overall = latencyStatsFrom(rack.allLatency());
    m.completed = rack.completedRoots();
    m.rejected = rack.rejectedRoots();
    m.qosViolations = rack.qosViolations();
    m.observed = rack.observedRoots();
    m.offeredRps = offered_rps;
    if (measure_time > 0) {
        m.throughputRps =
            static_cast<double>(m.completed) /
            (static_cast<double>(measure_time) /
             static_cast<double>(tickPerSec));
    }

    // Packages may be heterogeneous, hence the per-server average
    // and the fabric-link weighting.
    double util = 0.0;
    double disp = 0.0;
    double linkWeighted = 0.0;
    double totalLinks = 0.0;
    std::uint64_t msgs = 0;
    std::uint64_t servers = 0;
    for (std::uint32_t p = 0; p < rack.numPackages(); ++p) {
        ClusterSim &pkg = rack.package(p);
        for (ServerId s = 0; s < pkg.numServers(); ++s) {
            const Network &net = pkg.machine(s).network();
            const double fabric =
                static_cast<double>(net.fabricLinkCount());
            util += pkg.machine(s).avgCoreUtilization();
            disp += pkg.machine(s).dispatcherUtilization();
            linkWeighted += net.meanLinkUtilization() * fabric;
            totalLinks += fabric;
            m.maxLinkUtilization = std::max(
                m.maxLinkUtilization, net.maxLinkUtilization());
            msgs += net.messagesDelivered();
            ++servers;
        }
    }
    if (servers > 0) {
        m.avgCoreUtilization =
            util / static_cast<double>(servers);
        m.dispatcherUtilization =
            disp / static_cast<double>(servers);
    }
    if (totalLinks > 0.0)
        m.meanLinkUtilization = linkWeighted / totalLinks;
    m.icnMessages = msgs;
    return m;
}

/**
 * Rack statistics dump: rack.* LB/placement/fabric aggregates
 * followed by each package's full collectStats() tree under a
 * "pkgN." prefix. With one package, exactly collectStats().
 */
StatsDump
collectRackStats(RackSim &rack)
{
    if (rack.numPackages() == 1)
        return collectStats(rack.package(0));

    StatsDump d;
    d.add("rack.packages",
          static_cast<double>(rack.numPackages()),
          "Packages in the rack");
    d.add("rack.replicas",
          static_cast<double>(rack.placement().replicas()),
          "Replica packages per endpoint");
    d.add("rack.lb.shedRoots",
          static_cast<double>(rack.lbShedRoots()),
          "Roots shed at the LB (all replicas down)");
    d.add("rack.lb.failovers",
          static_cast<double>(rack.failovers()),
          "Dispatches that routed around a down replica");
    d.add("rack.lb.policyProbes",
          static_cast<double>(rack.policyProbes()),
          "Occupancy probes issued by the replica policy");
    for (std::uint32_t p = 0; p < rack.numPackages(); ++p) {
        d.add(strprintf("rack.lb.pkg%u.dispatches", p),
              static_cast<double>(rack.lbDispatches(p)),
              "Roots the LB dispatched to this package");
    }
    const Histogram &hop = rack.pkgHopTicks();
    d.add("rack.hop.count", static_cast<double>(hop.count()),
          "Completed rack roots with recorded hop time");
    d.add("rack.hop.avgUs", hop.mean() / tickPerUs,
          "Mean inter-package hop time per completed root");
    d.add("rack.hop.p99Us",
          static_cast<double>(hop.p99()) / tickPerUs,
          "P99 inter-package hop time per completed root");
    d.add("rack.net.messages",
          static_cast<double>(rack.net().messages()),
          "Messages crossing the rack fabric");
    d.add("rack.net.bytes",
          static_cast<double>(rack.net().bytes()),
          "Bytes crossing the rack fabric");

    for (std::uint32_t p = 0; p < rack.numPackages(); ++p) {
        const StatsDump pkg = collectStats(rack.package(p));
        const std::string prefix = strprintf("pkg%u.", p);
        for (const StatEntry &e : pkg.entries())
            d.add(prefix + e.name, e.value, e.desc);
    }
    return d;
}

/**
 * Run-health block on stderr: did the run drain, what did the
 * resilience machinery do, and did any observer lose data? Meant to
 * be scanned by a human after a long run, so it is prose-dense and
 * never touches stdout. Counters sum over every package.
 */
void
printRunSummary(RackSim &rack, const EventQueue &eq, bool drained,
                const Sampler *sampler, const RackSampler *rack_sampler,
                const TraceSink *sink, const AttribRegistry *attrib)
{
    std::uint64_t shed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t stale = 0;
    std::uint64_t reroutes = 0;
    std::uint64_t corrupt_retx = 0;
    std::uint64_t degraded = 0;
    std::uint64_t no_path_drops = 0;
    for (std::uint32_t p = 0; p < rack.numPackages(); ++p) {
        ClusterSim &pkg = rack.package(p);
        shed += pkg.shedRoots();
        timeouts += pkg.timeouts();
        retries += pkg.retries();
        stale += pkg.staleResponses();
        for (ServerId s = 0; s < pkg.numServers(); ++s) {
            const Network &net = pkg.machine(s).network();
            reroutes += net.reroutes();
            corrupt_retx += net.corruptRetransmits();
            degraded += net.degradedDeliveries();
            no_path_drops += net.messagesDropped();
        }
    }
    std::fprintf(stderr, "[run-summary] %s after %llu events "
                 "(sim %.3f ms)\n",
                 drained ? "drained" : "HIT DRAIN LIMIT",
                 static_cast<unsigned long long>(eq.dispatched()),
                 toMs(eq.now()));
    std::fprintf(stderr,
                 "[run-summary] roots: %llu completed, %llu "
                 "rejected, %llu shed\n",
                 static_cast<unsigned long long>(
                     rack.completedRoots()),
                 static_cast<unsigned long long>(
                     rack.rejectedRoots()),
                 static_cast<unsigned long long>(shed));
    if (rack.numPackages() > 1) {
        std::fprintf(stderr,
                     "[run-summary] rack: %llu LB sheds, %llu "
                     "failovers, %llu fabric msgs\n",
                     static_cast<unsigned long long>(
                         rack.lbShedRoots()),
                     static_cast<unsigned long long>(
                         rack.failovers()),
                     static_cast<unsigned long long>(
                         rack.net().messages()));
    }
    if (rack.package(0).recoveryEnabled()) {
        std::fprintf(stderr,
                     "[run-summary] recovery: %llu timeouts, %llu "
                     "retries, %llu stale responses\n",
                     static_cast<unsigned long long>(timeouts),
                     static_cast<unsigned long long>(retries),
                     static_cast<unsigned long long>(stale));
    }
    std::fprintf(stderr,
                 "[run-summary] net: %llu reroutes, %llu corrupt "
                 "retransmits, %llu degraded deliveries, %llu "
                 "no-path drops\n",
                 static_cast<unsigned long long>(reroutes),
                 static_cast<unsigned long long>(corrupt_retx),
                 static_cast<unsigned long long>(degraded),
                 static_cast<unsigned long long>(no_path_drops));
    if (sink != nullptr) {
        std::fprintf(stderr,
                     "[run-summary] trace: %llu recorded, %llu "
                     "dropped%s\n",
                     static_cast<unsigned long long>(
                         sink->recorded()),
                     static_cast<unsigned long long>(
                         sink->dropped()),
                     sink->dropped() > 0
                         ? " (truncated; raise trace capacity)"
                         : "");
        if (sink->dropped() > 0) {
            std::fprintf(stderr,
                         "[run-summary] trace drops by track: %s\n",
                         traceDropBreakdown(*sink).c_str());
        }
    }
    if (sampler != nullptr || rack_sampler != nullptr) {
        std::fprintf(stderr, "[run-summary] sampler: %zu samples\n",
                     sampler != nullptr
                         ? sampler->samples().size()
                         : rack_sampler->samples().size());
    }
    if (attrib != nullptr) {
        std::fprintf(stderr,
                     "[run-summary] attrib: %llu roots, %llu "
                     "ledger mismatches\n",
                     static_cast<unsigned long long>(
                         attrib->rootsObserved()),
                     static_cast<unsigned long long>(
                         attrib->ledgerMismatches()));
    }
}

/**
 * The experiment runner. Builds a RackSim of cfg.rack.packages
 * packages (one package is a bare ClusterSim behind an inert rack
 * layer), applies load, trims warmup, drains, writes the requested
 * artifacts and collects metrics. @p on_done, when set, sees the
 * finished rack before it is torn down.
 */
RunMetrics
runRack(const ServiceCatalog &catalog, const RackExperimentConfig &cfg,
        StatsDump *stats_out, AttribResult *attrib_out,
        const std::function<void(RackSim &)> &on_done = {})
{
    const ExperimentConfig &base = cfg.base;
    if (base.shards != 1) {
        fatal("shards=%u: only the serial kernel exists (shards=1)",
              static_cast<unsigned>(base.shards));
    }

    // Tracing is scoped to the run: install a sink before the rack
    // is built so every lifecycle event lands in it, and restore
    // the previous sink on exit.
    std::unique_ptr<TraceSink> sink;
    std::unique_ptr<ScopedTrace> scope;
    const bool tracing = !base.obs.traceOut.empty();
    if (tracing) {
        sink = std::make_unique<TraceSink>(base.obs.traceCapacity);
        sink->setFilter(parseTraceFilter(base.obs.traceFilter));
        scope = std::make_unique<ScopedTrace>(*sink);
    }

    // Attribution mirrors the tracing pattern: a thread-local
    // registry installed for the run's scope, free when absent.
    std::unique_ptr<AttribRegistry> attrib;
    std::unique_ptr<ScopedAttrib> attribScope;
    const bool attributing =
        base.obs.attrib || !base.obs.tailProfile.empty() ||
        attrib_out != nullptr;
    if (attributing) {
        attrib = std::make_unique<AttribRegistry>();
        attrib->setTopK(base.obs.tailTopK);
        attribScope = std::make_unique<ScopedAttrib>(attrib.get());
    }

#if UMANY_INVARIANTS_ENABLED
    // Debug-buildable conservation checks: every run audits its
    // queues, dispatcher, and network every N lifecycle events, and
    // requires full quiescence after a clean drain. Installed before
    // the rack so machines can register their auditors.
    InvariantChecker invariants;
    ScopedInvariants invariantScope(invariants);
#endif

    EventQueue eq;
    // The self-profiler attaches before the rack is built so the
    // warmup and construction-time events are attributed too. When
    // the path is empty the kernel keeps its detached (one branch
    // per event) fast path and all outputs stay byte-identical.
    std::unique_ptr<SimProfiler> simprof;
    if (!base.obs.simProfile.empty()) {
        simprof = std::make_unique<SimProfiler>();
        eq.setProfiler(simprof.get());
    }

    RackSimParams rp = cfg.rack;
    rp.cluster = base.cluster;
    std::vector<MachineParams> machines = cfg.machines;
    if (machines.empty())
        machines.push_back(base.machine);
    RackSim rack(eq, catalog, machines, rp);
    const bool racked = rack.numPackages() > 1;
    if (tracing && racked) {
        // Rack pid namespace: the exporter names package p's pid
        // block "pkgP.serverS" and the rack-substrate pid (LB +
        // fabric tracks) "rack". One package keeps the flat pids.
        sink->setPidNamespace(rack.tracePidStride(),
                              rack.numPackages());
    }
    for (const auto &[ep, threshold] : base.qosThresholds)
        rack.setQosThreshold(ep, threshold);
    if (!base.faults.empty())
        FaultInjector::arm(eq, rack, base.faults);

    // One package samples its cluster; a real rack samples
    // per-package and fabric state through the rack-scale sampler.
    // Either stops with the load so the queue can drain.
    std::unique_ptr<Sampler> sampler;
    std::unique_ptr<RackSampler> rackSampler;
    if (base.obs.sampleInterval > 0) {
        if (racked) {
            rackSampler = std::make_unique<RackSampler>(
                eq, rack, base.obs.sampleInterval);
            rackSampler->start(base.warmup + base.measure);
        } else {
            sampler = std::make_unique<Sampler>(
                eq, rack.package(0), base.obs.sampleInterval);
            sampler->start(base.warmup + base.measure);
        }
    }

    LoadGenParams lp;
    lp.rps = base.rpsPerServer *
             static_cast<double>(base.cluster.numServers) *
             static_cast<double>(rp.packages);
    lp.kind = base.arrivals;
    lp.start = 0;
    lp.stop = base.warmup + base.measure;
    lp.seed = base.seed;
    lp.streams = rp.packages;
    LoadGenerator gen(eq, catalog, lp, [&rack](ServiceId ep) {
        rack.submitRoot(ep);
    });
    gen.start();

    rack.setRecording(false);
    eq.schedule(base.warmup, EvTag{EvSrc::Kernel},
                [&rack]() { rack.setRecording(true); });

    // Run through the load window, then drain in-flight requests
    // (bounded, so saturated configurations still terminate).
    const bool drained = runWithProgress(
        eq, base.warmup + base.measure + base.drainLimit,
        base.obs.progressSec);
    if (!drained) {
        warn("experiment '%s' hit the drain limit with %zu events "
             "and %llu requests pending",
             base.machine.name.c_str(), eq.size(),
             static_cast<unsigned long long>(
                 rack.requestsInFlight()));
    }

#if UMANY_INVARIANTS_ENABLED
    // Quiescence laws only hold after a clean drain; a truncated
    // run legitimately leaves requests and flights in flight.
    if (drained)
        invariants.finalCheck();
    invariants.clearAuditors();
#endif

    if (tracing)
        writeChromeTrace(*sink, base.obs.traceOut);

    if (simprof) {
        eq.setProfiler(nullptr);
        simprof->finalize();
        writeTextFile(base.obs.simProfile, simprof->toJson());
        std::fputs(simprof->formatTable().c_str(), stderr);
    }

    StatsDump stats;
    if (stats_out != nullptr || !base.obs.statsJson.empty() ||
        !base.obs.metricsOut.empty()) {
        stats = collectRackStats(rack);
    }
    if (stats_out != nullptr)
        *stats_out = stats;

    const RunMetrics metrics = collectRackMetrics(
        rack, catalog, base.measure, base.rpsPerServer);

    if (attributing) {
        if (!base.obs.tailProfile.empty()) {
            // A rack splices its per-package ranking in so the
            // profile answers "which package is slow" too.
            const ServiceNamer namer = catalogNamer(catalog);
            writeTextFile(
                base.obs.tailProfile,
                racked ? attrib->profiler().toJson(
                             namer, "rack",
                             rackTailJson(rack, attrib->profiler()))
                       : attrib->profiler().toJson(namer));
        }
        if (attrib_out != nullptr) {
            attrib_out->enabled = true;
            attrib_out->requests = attrib->accumulated();
            attrib_out->roots = attrib->rootsObserved();
            attrib_out->ledgerMismatches =
                attrib->ledgerMismatches();
            for (std::size_t c = 0; c < kNumAttribComps; ++c) {
                const Histogram &h = attrib->componentTicks(
                    static_cast<AttribComp>(c));
                attrib_out->perRequestMeanUs[c] =
                    h.count() > 0 ? h.mean() / tickPerUs : 0.0;
            }
            // §3.3 analytic means pool every package's requests.
            Summary queued, blocked, running;
            for (std::uint32_t p = 0; p < rack.numPackages(); ++p) {
                queued.merge(rack.package(p).queuedTimeUs());
                blocked.merge(rack.package(p).blockedTimeUs());
                running.merge(rack.package(p).runningTimeUs());
            }
            attrib_out->analyticQueuedUs = queued.mean();
            attrib_out->analyticBlockedUs = blocked.mean();
            attrib_out->analyticRunningUs = running.mean();
            attrib_out->profiler = attrib->profiler();
        }
    }

    if (!base.obs.metricsOut.empty()) {
        // OpenMetrics artifact: the full stats dump as gauges, the
        // per-endpoint latency distributions as summaries, and (when
        // attribution is on) the per-component ledger summaries.
        MetricsRegistry reg;
        if (!racked) {
            for (const StatEntry &e : stats.entries())
                reg.gauge(e.name, e.desc, e.value);
        } else {
            // Package-scoped stats become one series per metric
            // with a package="N" label (so per-package series sum
            // to the rack aggregates below), and the LB's
            // per-replica selection counts export as labeled
            // counters tagged with the policy that made them.
            const std::string policy =
                dispatchKindName(rp.replica.kind);
            for (const StatEntry &e : stats.entries()) {
                std::uint32_t pkg = 0;
                std::string rest;
                if (splitPkgStat(e.name, pkg, rest)) {
                    reg.gauge(rest, e.desc, e.value,
                              {{"package", strprintf("%u", pkg)}});
                } else if (e.name.compare(0, 11, "rack.lb.pkg") ==
                           0) {
                    // Re-emitted below as a labeled counter.
                } else {
                    reg.gauge(e.name, e.desc, e.value);
                }
            }
            for (std::uint32_t p = 0; p < rack.numPackages(); ++p) {
                reg.counter(
                    "rack.lb.dispatches",
                    "Roots the LB dispatched to this package",
                    static_cast<double>(rack.lbDispatches(p)),
                    {{"package", strprintf("%u", p)},
                     {"policy", policy}});
            }
            reg.counter("rack.lb.sheds",
                        "Roots shed at the LB (all replicas down)",
                        static_cast<double>(rack.lbShedRoots()),
                        {{"policy", policy}});
            reg.counter(
                "rack.lb.failovers",
                "Dispatches that routed around a down replica",
                static_cast<double>(rack.failovers()),
                {{"policy", policy}});
            reg.counter("rack.roots.observed",
                        "Roots observed rack-wide (LB sheds "
                        "included)",
                        static_cast<double>(rack.observedRoots()));
            reg.counter("rack.roots.completed",
                        "Roots completed rack-wide",
                        static_cast<double>(rack.completedRoots()));
            reg.counter("rack.roots.rejected",
                        "Roots rejected rack-wide (LB sheds "
                        "included)",
                        static_cast<double>(rack.rejectedRoots()));
        }
        for (const ServiceId ep : catalog.endpoints()) {
            reg.summary("endpoint_latency_us",
                        "End-to-end root latency by endpoint",
                        rack.endpointLatency(ep), 1.0 / tickPerUs,
                        {{"endpoint", catalog.at(ep).name}});
        }
        if (attributing) {
            for (std::size_t c = 0; c < kNumAttribComps; ++c) {
                const AttribComp comp =
                    static_cast<AttribComp>(c);
                reg.summary(
                    "attrib_component_us",
                    "Per-request latency ledger charge by "
                    "component",
                    attrib->componentTicks(comp), 1.0 / tickPerUs,
                    {{"component", attribCompName(comp)}});
            }
            reg.counter("attrib_roots",
                        "Completed roots ingested by the tail "
                        "profiler",
                        static_cast<double>(
                            attrib->rootsObserved()));
            reg.counter("attrib_ledger_mismatches",
                        "Roots whose ledger missed the observed "
                        "latency by more than one tick",
                        static_cast<double>(
                            attrib->ledgerMismatches()));
        }
        writeTextFile(base.obs.metricsOut, reg.openMetricsText());
    }

    if (!base.obs.statsJson.empty()) {
        // One self-contained artifact per run: metrics + stats (+
        // sampler series), each section a documented schema.
        JsonWriter w;
        w.beginObject();
        w.key("name").value(base.machine.name);
        w.key("drained").value(drained);
        w.key("metrics").raw(metricsJson(metrics));
        w.key("stats").raw(stats.formatJson());
        if (sampler)
            w.key("samples").raw(sampler->toJson());
        else if (rackSampler)
            w.key("samples").raw(rackSampler->toJson());
        else
            w.key("samples").null();
        w.endObject();
        writeTextFile(base.obs.statsJson, w.str());
    }

    if (base.obs.runSummary) {
        printRunSummary(rack, eq, drained, sampler.get(),
                        rackSampler.get(), sink.get(), attrib.get());
    }
    if (on_done)
        on_done(rack);
    return metrics;
}

} // namespace

RunMetrics
runRackExperiment(const ServiceCatalog &catalog,
                  const RackExperimentConfig &cfg,
                  StatsDump *stats_out, AttribResult *attrib_out)
{
    return runRack(catalog, cfg, stats_out, attrib_out);
}

RunMetrics
runExperiment(const ServiceCatalog &catalog,
              const ExperimentConfig &cfg, StatsDump *stats_out,
              AttribResult *attrib_out)
{
    RackExperimentConfig one;
    one.base = cfg;
    one.rack.packages = 1;
    return runRack(catalog, one, stats_out, attrib_out);
}

std::map<ServiceId, Tick>
contentionFreeAverages(const ServiceCatalog &catalog,
                       const ExperimentConfig &base)
{
    // A quiet run of the base machine: low Poisson load on its own
    // arrival seed, no ICN contention, and nothing the base run
    // carries besides the machine and cluster (faults, thresholds
    // and artifacts would perturb or duplicate it).
    RackExperimentConfig cfg;
    cfg.base = base;
    cfg.base.machine.icnContention = false;
    cfg.base.rpsPerServer = 200.0;
    cfg.base.arrivals = ArrivalKind::Poisson;
    cfg.base.warmup = fromMs(5.0);
    cfg.base.measure = fromMs(400.0);
    cfg.base.seed = base.seed ^ 0xc0ffeeull;
    cfg.base.qosThresholds.clear();
    cfg.base.faults = FaultPlan();
    cfg.base.obs = ObsConfig();
    cfg.rack.packages = 1;

    // The exact histogram means: RunMetrics holds rounded
    // milliseconds, and the thresholds derive from these to the tick.
    std::map<ServiceId, Tick> avgs;
    runRack(catalog, cfg, nullptr, nullptr, [&](RackSim &rack) {
        for (const ServiceId ep : catalog.endpoints()) {
            avgs[ep] = static_cast<Tick>(
                rack.package(0).endpointLatency(ep).mean());
        }
    });
    return avgs;
}

} // namespace umany
