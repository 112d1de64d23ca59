#include "rack/rack_experiment.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <memory>

#include "driver/report.hh"
#include "fault/injector.hh"
#include "obs/attrib.hh"
#include "obs/chrome_trace.hh"
#include "obs/json.hh"
#include "obs/sampler.hh"
#include "obs/simprof.hh"
#include "rack/rack_sampler.hh"
#include "sim/logging.hh"
#include "stats/metrics_registry.hh"
#include "validate/invariants.hh"

namespace umany
{

namespace
{

/** Map a service id to its catalog name (same fallback as the
 *  single-package runner). */
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

/** Run to @p limit with the same host-time heartbeat contract as
 *  driver/experiment.cc: stdout stays byte-identical either way. */
bool
runWithProgress(EventQueue &eq, Tick limit, double progress_sec)
{
    if (progress_sec <= 0.0)
        return eq.runUntil(limit);

    using HostClock = std::chrono::steady_clock;
    constexpr std::uint64_t chunkEvents = 1u << 17;
    const auto period = std::chrono::duration<double>(progress_sec);
    HostClock::time_point lastBeat = HostClock::now();
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
        std::fprintf(stderr,
                     "[progress] sim %9.3f ms | events %12llu | "
                     "queue %8zu\n",
                     toMs(eq.now()),
                     static_cast<unsigned long long>(
                         eq.dispatched()),
                     eq.size());
        lastBeat = t;
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

} // namespace

RunMetrics
collectRackMetrics(RackSim &rack, const ServiceCatalog &catalog,
                   Tick measure_time, double offered_rps)
{
    if (rack.numPackages() == 1) {
        // Inert rack: defer to the single-package collector so the
        // FP summation order (and thus every golden byte) matches.
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

    // Utilizations average over every server in the rack; link
    // utilization weights each network by its fabric-link count
    // (packages may be heterogeneous).
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

StatsDump
collectRackStats(RackSim &rack)
{
    if (rack.numPackages() == 1) {
        // Inert rack: the stats tree is exactly the package's.
        return collectStats(rack.package(0));
    }

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

RunMetrics
runRackExperiment(const ServiceCatalog &catalog,
                  const RackExperimentConfig &cfg,
                  StatsDump *stats_out, AttribResult *attrib_out)
{
    const ExperimentConfig &base = cfg.base;
    if (base.shards != 1) {
        fatal("shards=%u: only the serial kernel exists (shards=1)",
              static_cast<unsigned>(base.shards));
    }

    // Tracing is scoped to the run, as in runExperiment: the sink
    // installs before the rack is built so every lifecycle event
    // lands in it. Racked runs get a pid namespace below.
    std::unique_ptr<TraceSink> sink;
    std::unique_ptr<ScopedTrace> scope;
    const bool tracing = !base.obs.traceOut.empty();
    if (tracing) {
        sink = std::make_unique<TraceSink>(base.obs.traceCapacity);
        sink->setFilter(parseTraceFilter(base.obs.traceFilter));
        scope = std::make_unique<ScopedTrace>(*sink);
    }

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
    InvariantChecker invariants;
    ScopedInvariants invariantScope(invariants);
#endif

    EventQueue eq;
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
    if (tracing && rack.numPackages() > 1) {
        // Rack pid namespace: the exporter names package p's pid
        // block "pkgP.serverS" and the rack-substrate pid (LB +
        // fabric tracks) "rack". Inert racks keep stride 0 so a
        // 1-package trace stays byte-identical to runExperiment's.
        sink->setPidNamespace(rack.tracePidStride(),
                              rack.numPackages());
    }
    for (const auto &[ep, threshold] : base.qosThresholds)
        rack.setQosThreshold(ep, threshold);
    if (!base.faults.empty())
        FaultInjector::arm(eq, rack, base.faults);

    // Sampling: the inert rack keeps the single-package Sampler
    // (byte-identical series); a real rack samples per-package and
    // fabric state through the rack-scale sampler.
    std::unique_ptr<Sampler> sampler;
    std::unique_ptr<RackSampler> rackSampler;
    if (base.obs.sampleInterval > 0) {
        if (rack.numPackages() == 1) {
            sampler = std::make_unique<Sampler>(
                eq, rack.package(0), base.obs.sampleInterval);
            sampler->start(base.warmup + base.measure);
        } else {
            rackSampler = std::make_unique<RackSampler>(
                eq, rack, base.obs.sampleInterval);
            rackSampler->start(base.warmup + base.measure);
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
    lp.streams = cfg.arrivalStreams > 0 ? cfg.arrivalStreams
                                        : rp.packages;
    LoadGenerator gen(eq, catalog, lp, [&rack](ServiceId ep) {
        rack.submitRoot(ep);
    });
    gen.start();

    rack.setRecording(false);
    eq.schedule(base.warmup, EvTag{EvSrc::Kernel},
                [&rack]() { rack.setRecording(true); });

    const bool drained = runWithProgress(
        eq, base.warmup + base.measure + base.drainLimit,
        base.obs.progressSec);
    if (!drained) {
        warn("rack experiment '%s' hit the drain limit with %zu "
             "events and %llu requests pending",
             base.machine.name.c_str(), eq.size(),
             static_cast<unsigned long long>(
                 rack.requestsInFlight()));
    }

#if UMANY_INVARIANTS_ENABLED
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
        const ServiceNamer namer = catalogNamer(catalog);
        if (!base.obs.tailProfile.empty()) {
            if (rack.numPackages() > 1) {
                // Racked: splice the per-package ranking in so the
                // profile answers "which package is slow" too.
                writeTextFile(
                    base.obs.tailProfile,
                    attrib->profiler().toJson(
                        namer, "rack",
                        rackTailJson(rack, attrib->profiler())));
            } else {
                writeTextFile(base.obs.tailProfile,
                              attrib->profiler().toJson(namer));
            }
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
            for (std::uint32_t p = 0; p < rack.numPackages();
                 ++p) {
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
        MetricsRegistry reg;
        if (rack.numPackages() == 1) {
            // Inert rack: the flat export, byte-identical to
            // runExperiment's.
            for (const StatEntry &e : stats.entries())
                reg.gauge(e.name, e.desc, e.value);
        } else {
            // Racked: package-scoped stats become one series per
            // metric with a package="N" label (so per-package
            // series sum to the rack aggregates below), and the
            // LB's per-replica selection counts export as labeled
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
        std::fprintf(stderr,
                     "[run-summary] %s after %llu events "
                     "(sim %.3f ms)\n",
                     drained ? "drained" : "HIT DRAIN LIMIT",
                     static_cast<unsigned long long>(
                         eq.dispatched()),
                     toMs(eq.now()));
        std::fprintf(
            stderr,
            "[run-summary] rack: %llu completed, %llu rejected, "
            "%llu LB sheds, %llu failovers, %llu fabric msgs\n",
            static_cast<unsigned long long>(
                rack.completedRoots()),
            static_cast<unsigned long long>(rack.rejectedRoots()),
            static_cast<unsigned long long>(rack.lbShedRoots()),
            static_cast<unsigned long long>(rack.failovers()),
            static_cast<unsigned long long>(
                rack.net().messages()));
        if (sink) {
            std::fprintf(
                stderr,
                "[run-summary] trace: %llu recorded, %llu "
                "dropped%s\n",
                static_cast<unsigned long long>(sink->recorded()),
                static_cast<unsigned long long>(sink->dropped()),
                sink->dropped() > 0
                    ? " (truncated; raise trace capacity)"
                    : "");
            if (sink->dropped() > 0) {
                std::fprintf(
                    stderr,
                    "[run-summary] trace drops by track: %s\n",
                    traceDropBreakdown(*sink).c_str());
            }
        }
        if (sampler || rackSampler) {
            std::fprintf(stderr,
                         "[run-summary] sampler: %zu samples\n",
                         sampler ? sampler->samples().size()
                                 : rackSampler->samples().size());
        }
        if (attrib) {
            std::fprintf(stderr,
                         "[run-summary] attrib: %llu roots, %llu "
                         "ledger mismatches\n",
                         static_cast<unsigned long long>(
                             attrib->rootsObserved()),
                         static_cast<unsigned long long>(
                             attrib->ledgerMismatches()));
        }
    }
    return metrics;
}

} // namespace umany
