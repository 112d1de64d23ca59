#include "driver/experiment.hh"

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

/**
 * Run-health block on stderr: did the run drain, what did the
 * resilience machinery do, and did any observer lose data? Meant to
 * be scanned by a human after a long run, so it is prose-dense and
 * never touches stdout.
 */
void
printRunSummary(ClusterSim &sim, const EventQueue &eq, bool drained,
                const Sampler *sampler, const TraceSink *sink,
                const AttribRegistry *attrib)
{
    std::uint64_t reroutes = 0;
    std::uint64_t corrupt_retx = 0;
    std::uint64_t degraded = 0;
    std::uint64_t no_path_drops = 0;
    for (ServerId s = 0; s < sim.numServers(); ++s) {
        const Network &net = sim.machine(s).network();
        reroutes += net.reroutes();
        corrupt_retx += net.corruptRetransmits();
        degraded += net.degradedDeliveries();
        no_path_drops += net.messagesDropped();
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
                     sim.completedRoots()),
                 static_cast<unsigned long long>(
                     sim.rejectedRoots()),
                 static_cast<unsigned long long>(sim.shedRoots()));
    if (sim.recoveryEnabled()) {
        std::fprintf(stderr,
                     "[run-summary] recovery: %llu timeouts, %llu "
                     "retries, %llu stale responses\n",
                     static_cast<unsigned long long>(sim.timeouts()),
                     static_cast<unsigned long long>(sim.retries()),
                     static_cast<unsigned long long>(
                         sim.staleResponses()));
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
    if (sampler != nullptr) {
        std::fprintf(stderr, "[run-summary] sampler: %zu samples\n",
                     sampler->samples().size());
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

} // namespace

RunMetrics
runExperiment(const ServiceCatalog &catalog,
              const ExperimentConfig &cfg, StatsDump *stats_out,
              AttribResult *attrib_out)
{
    if (cfg.shards != 1) {
        fatal("shards=%u: only the serial kernel exists (shards=1)",
              static_cast<unsigned>(cfg.shards));
    }

    // Tracing is scoped to the run: install a sink before the
    // cluster is built so every lifecycle event lands in it, and
    // restore the previous sink on exit.
    std::unique_ptr<TraceSink> sink;
    std::unique_ptr<ScopedTrace> scope;
    const bool tracing = !cfg.obs.traceOut.empty();
    if (tracing) {
        sink = std::make_unique<TraceSink>(cfg.obs.traceCapacity);
        sink->setFilter(parseTraceFilter(cfg.obs.traceFilter));
        scope = std::make_unique<ScopedTrace>(*sink);
    }

    // Attribution mirrors the tracing pattern: a thread-local
    // registry installed for the run's scope, free when absent.
    std::unique_ptr<AttribRegistry> attrib;
    std::unique_ptr<ScopedAttrib> attribScope;
    const bool attributing =
        cfg.obs.attrib || !cfg.obs.tailProfile.empty() ||
        attrib_out != nullptr;
    if (attributing) {
        attrib = std::make_unique<AttribRegistry>();
        attrib->setTopK(cfg.obs.tailTopK);
        attribScope = std::make_unique<ScopedAttrib>(attrib.get());
    }

#if UMANY_INVARIANTS_ENABLED
    // Debug-buildable conservation checks: every run audits its
    // queues, dispatcher, and network every N lifecycle events, and
    // requires full quiescence after a clean drain. Installed before
    // the cluster so machines can register their auditors.
    InvariantChecker invariants;
    ScopedInvariants invariantScope(invariants);
#endif

    EventQueue eq;
    // The self-profiler attaches before the cluster is built so the
    // warmup and construction-time events are attributed too. When
    // the path is empty the kernel keeps its detached (one branch
    // per event) fast path and all outputs stay byte-identical.
    std::unique_ptr<SimProfiler> simprof;
    if (!cfg.obs.simProfile.empty()) {
        simprof = std::make_unique<SimProfiler>();
        eq.setProfiler(simprof.get());
    }
    ClusterSim sim(eq, catalog, cfg.machine, cfg.cluster);
    for (const auto &[ep, threshold] : cfg.qosThresholds)
        sim.setQosThreshold(ep, threshold);
    if (!cfg.faults.empty())
        FaultInjector::arm(eq, sim, cfg.faults);

    std::unique_ptr<Sampler> sampler;
    if (cfg.obs.sampleInterval > 0) {
        sampler = std::make_unique<Sampler>(eq, sim,
                                            cfg.obs.sampleInterval);
        // Sampling stops with the load so the queue can drain.
        sampler->start(cfg.warmup + cfg.measure);
    }

    LoadGenParams lp;
    lp.rps = cfg.rpsPerServer *
             static_cast<double>(cfg.cluster.numServers);
    lp.kind = cfg.arrivals;
    lp.start = 0;
    lp.stop = cfg.warmup + cfg.measure;
    lp.seed = cfg.seed;
    LoadGenerator gen(eq, catalog, lp, [&sim](ServiceId ep) {
        sim.submitRoot(ep);
    });
    gen.start();

    sim.setRecording(false);
    eq.schedule(cfg.warmup, EvTag{EvSrc::Kernel},
                [&sim]() { sim.setRecording(true); });

    // Run through the load window, then drain in-flight requests
    // (bounded, so saturated configurations still terminate).
    const bool drained = runWithProgress(
        eq, cfg.warmup + cfg.measure + cfg.drainLimit,
        cfg.obs.progressSec);
    if (!drained) {
        warn("experiment '%s' hit the drain limit with %zu events "
             "and %llu requests pending",
             cfg.machine.name.c_str(), eq.size(),
             static_cast<unsigned long long>(
                 sim.requestsInFlight()));
    }

#if UMANY_INVARIANTS_ENABLED
    // Quiescence laws only hold after a clean drain; a truncated
    // run legitimately leaves requests and flights in flight.
    if (drained)
        invariants.finalCheck();
    invariants.clearAuditors();
#endif

    if (tracing)
        writeChromeTrace(*sink, cfg.obs.traceOut);

    if (simprof) {
        eq.setProfiler(nullptr);
        simprof->finalize();
        writeTextFile(cfg.obs.simProfile, simprof->toJson());
        std::fputs(simprof->formatTable().c_str(), stderr);
    }

    StatsDump stats;
    if (stats_out != nullptr || !cfg.obs.statsJson.empty() ||
        !cfg.obs.metricsOut.empty()) {
        stats = collectStats(sim);
    }
    if (stats_out != nullptr)
        *stats_out = stats;

    const RunMetrics metrics =
        collectMetrics(sim, catalog, cfg.measure, cfg.rpsPerServer);

    if (attributing) {
        const ServiceNamer namer = catalogNamer(catalog);
        if (!cfg.obs.tailProfile.empty()) {
            writeTextFile(cfg.obs.tailProfile,
                          attrib->profiler().toJson(namer));
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
            attrib_out->analyticQueuedUs =
                sim.queuedTimeUs().mean();
            attrib_out->analyticBlockedUs =
                sim.blockedTimeUs().mean();
            attrib_out->analyticRunningUs =
                sim.runningTimeUs().mean();
            attrib_out->profiler = attrib->profiler();
        }
    }

    if (!cfg.obs.metricsOut.empty()) {
        // OpenMetrics artifact: the full stats dump as gauges, the
        // per-endpoint latency distributions as summaries, and (when
        // attribution is on) the per-component ledger summaries.
        MetricsRegistry reg;
        for (const StatEntry &e : stats.entries())
            reg.gauge(e.name, e.desc, e.value);
        for (const ServiceId ep : catalog.endpoints()) {
            reg.summary("endpoint_latency_us",
                        "End-to-end root latency by endpoint",
                        sim.endpointLatency(ep), 1.0 / tickPerUs,
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
        writeTextFile(cfg.obs.metricsOut, reg.openMetricsText());
    }

    if (!cfg.obs.statsJson.empty()) {
        // One self-contained artifact per run: metrics + stats (+
        // sampler series), each section a documented schema.
        JsonWriter w;
        w.beginObject();
        w.key("name").value(cfg.machine.name);
        w.key("drained").value(drained);
        w.key("metrics").raw(metricsJson(metrics));
        w.key("stats").raw(stats.formatJson());
        if (sampler)
            w.key("samples").raw(sampler->toJson());
        else
            w.key("samples").null();
        w.endObject();
        writeTextFile(cfg.obs.statsJson, w.str());
    }

    if (cfg.obs.runSummary) {
        printRunSummary(sim, eq, drained, sampler.get(),
                        sink.get(), attrib.get());
    }
    return metrics;
}

std::map<ServiceId, Tick>
contentionFreeAverages(const ServiceCatalog &catalog,
                       const ExperimentConfig &base)
{
    ExperimentConfig cfg = base;
    cfg.machine.icnContention = false;
    cfg.rpsPerServer = 200.0;
    cfg.warmup = fromMs(5.0);
    cfg.measure = fromMs(400.0);
    cfg.qosThresholds.clear();

    EventQueue eq;
    ClusterSim sim(eq, catalog, cfg.machine, cfg.cluster);

    LoadGenParams lp;
    lp.rps = cfg.rpsPerServer *
             static_cast<double>(cfg.cluster.numServers);
    lp.stop = cfg.warmup + cfg.measure;
    lp.seed = cfg.seed ^ 0xc0ffeeull;
    LoadGenerator gen(eq, catalog, lp, [&sim](ServiceId ep) {
        sim.submitRoot(ep);
    });
    gen.start();
    sim.setRecording(false);
    eq.schedule(cfg.warmup, EvTag{EvSrc::Kernel},
                [&sim]() { sim.setRecording(true); });
    eq.runUntil(cfg.warmup + cfg.measure + cfg.drainLimit);

    std::map<ServiceId, Tick> avgs;
    for (const ServiceId ep : catalog.endpoints()) {
        avgs[ep] = static_cast<Tick>(
            sim.endpointLatency(ep).mean());
    }
    return avgs;
}

} // namespace umany
