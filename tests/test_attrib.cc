/**
 * @file
 * Tests for tail-latency attribution: the per-request ledger and its
 * sum invariant, critical-path extraction over a hand-built span
 * tree, agreement between the ledger and the §3.3 analytic
 * decomposition, bottleneck localisation with the synthetic fan-out
 * workload, the tail profiler's top-k retention, the OpenMetrics
 * exporter, the trace-track filter, and parent->child flow events.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "obs/attrib.hh"
#include "obs/span_tree.hh"
#include "obs/tail_profiler.hh"
#include "obs/trace.hh"
#include "stats/metrics_registry.hh"
#include "workload/app_graph.hh"
#include "workload/synthetic.hh"

namespace umany
{
namespace
{

ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.machine = uManycoreParams();
    cfg.cluster.numServers = 2;
    cfg.rpsPerServer = 2000.0;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(30.0);
    cfg.seed = 7;
    return cfg;
}

// ---------------------------------------------------------------
// Critical-path extraction on a hand-built three-level tree.
// ---------------------------------------------------------------

/** Fixture state: records indexed by id (map nodes stay put, so
 *  the children pointers stay valid). */
struct HandTree
{
    std::map<RequestId, AttribRecord> records;

    AttribRecord &
    node(RequestId id, RequestId parent, ServiceId service,
         Tick created, Tick resolved)
    {
        AttribRecord &r = records[id];
        r.id = id;
        r.parent = parent;
        r.service = service;
        r.createdAt = created;
        r.startedAt = created;
        r.resolvedAt = resolved;
        r.resolved = true;
        if (parent != 0)
            records[parent].children.push_back(&r);
        return r;
    }
};

constexpr Tick kUs = static_cast<Tick>(tickPerUs);

TEST(CriticalPath, DescendsGatingChildOfThreeLevelTree)
{
    // Root 1 fans out to children 2 and 3; child 3 resolves last
    // (gating) and itself waits on grandchildren 4 and 5, of which 5
    // gates. The expected chain is 1 -> 3 -> 5.
    HandTree t;
    AttribRecord &root = t.node(1, 0, 10, 0, 100 * kUs);
    root.comp[static_cast<std::size_t>(AttribComp::ServiceExec)] =
        20 * kUs;
    root.comp[static_cast<std::size_t>(
        AttribComp::BlockedOnChild)] = 70 * kUs;
    root.comp[static_cast<std::size_t>(AttribComp::RqWait)] =
        10 * kUs;

    AttribRecord &fast = t.node(2, 1, 11, 20 * kUs, 40 * kUs);
    fast.comp[static_cast<std::size_t>(AttribComp::ServiceExec)] =
        20 * kUs;

    AttribRecord &slow = t.node(3, 1, 12, 20 * kUs, 90 * kUs);
    slow.comp[static_cast<std::size_t>(AttribComp::ServiceExec)] =
        30 * kUs;
    slow.comp[static_cast<std::size_t>(
        AttribComp::BlockedOnChild)] = 35 * kUs;
    slow.comp[static_cast<std::size_t>(AttribComp::IcnAccess)] =
        5 * kUs;

    AttribRecord &gfast = t.node(4, 3, 13, 50 * kUs, 60 * kUs);
    gfast.comp[static_cast<std::size_t>(AttribComp::ServiceExec)] =
        10 * kUs;

    AttribRecord &gslow = t.node(5, 3, 13, 50 * kUs, 80 * kUs);
    gslow.comp[static_cast<std::size_t>(AttribComp::ServiceExec)] =
        15 * kUs;
    gslow.comp[static_cast<std::size_t>(
        AttribComp::BlockedOnChild)] = 15 * kUs; // storage wait

    CriticalPath path;
    extractCriticalPath(root, path);

    ASSERT_EQ(path.steps.size(), 3u);
    EXPECT_EQ(path.steps[0].id, 1u);
    EXPECT_EQ(path.steps[1].id, 3u);
    EXPECT_EQ(path.steps[2].id, 5u);
    EXPECT_EQ(path.steps[0].depth, 0u);
    EXPECT_EQ(path.steps[1].depth, 1u);
    EXPECT_EQ(path.steps[2].depth, 2u);
    EXPECT_EQ(path.steps[1].service, 12u);

    const auto at = [&path](AttribComp c) {
        return path.comp[static_cast<std::size_t>(c)];
    };
    // Non-blocked components stack across the chain.
    EXPECT_EQ(at(AttribComp::ServiceExec),
              (20 + 30 + 15) * kUs);
    EXPECT_EQ(at(AttribComp::RqWait), 10 * kUs);
    EXPECT_EQ(at(AttribComp::IcnAccess), 5 * kUs);
    // Blocked time: root's 70us slack over child 3's 70us total is
    // 0; node 3's 35us blocked minus grandchild 5's 30us total
    // leaves 5us slack; the leaf's own 15us storage wait stays.
    EXPECT_EQ(at(AttribComp::BlockedOnChild), (5 + 15) * kUs);
    EXPECT_EQ(path.totalTicks, root.total());

    // A reused path is replaced, not added to.
    extractCriticalPath(root, path);
    EXPECT_EQ(path.steps.size(), 3u);
    EXPECT_EQ(at(AttribComp::ServiceExec), (20 + 30 + 15) * kUs);
    EXPECT_EQ(at(AttribComp::BlockedOnChild), (5 + 15) * kUs);
}

TEST(CriticalPath, UnresolvableChildTerminatesDescent)
{
    HandTree t;
    AttribRecord &root = t.node(1, 0, 10, 0, 50 * kUs);
    root.comp[static_cast<std::size_t>(
        AttribComp::BlockedOnChild)] = 40 * kUs;
    root.comp[static_cast<std::size_t>(AttribComp::ServiceExec)] =
        10 * kUs;
    AttribRecord pending; // issued, never resolved
    pending.id = 99;
    root.children.push_back(&pending);

    CriticalPath path;
    extractCriticalPath(root, path);
    ASSERT_EQ(path.steps.size(), 1u);
    // Unattributable wait stays blocked-on-child.
    EXPECT_EQ(path.comp[static_cast<std::size_t>(
                  AttribComp::BlockedOnChild)],
              40 * kUs);
}

// ---------------------------------------------------------------
// The ledger on real runs.
// ---------------------------------------------------------------

TEST(Attrib, LedgerSumsToObservedLatencyOnRealRun)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg = tinyConfig();
    AttribResult a;
    runExperiment(cat, cfg, nullptr, &a);

    ASSERT_TRUE(a.enabled);
    EXPECT_GT(a.roots, 0u);
    EXPECT_GT(a.requests, a.roots); // children were accumulated too
    // The acceptance invariant: every completed root's ledger sums
    // to its client-observed latency within one tick.
    EXPECT_EQ(a.ledgerMismatches, 0u);
}

TEST(Attrib, LedgerAgreesWithAnalyticDecomposition)
{
    // The three §3.3-comparable components must match the analytic
    // means the simulator tracks independently, within 5%.
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg = tinyConfig();
    cfg.rpsPerServer = 4000.0;
    AttribResult a;
    runExperiment(cat, cfg, nullptr, &a);
    ASSERT_TRUE(a.enabled);

    const auto mean = [&a](AttribComp c) {
        return a.perRequestMeanUs[static_cast<std::size_t>(c)];
    };
    const auto close = [](double ledger, double analytic) {
        if (analytic < 1e-9)
            return ledger < 1e-9;
        return std::abs(ledger - analytic) / analytic < 0.05;
    };
    EXPECT_TRUE(close(mean(AttribComp::RqWait),
                      a.analyticQueuedUs))
        << mean(AttribComp::RqWait) << " vs "
        << a.analyticQueuedUs;
    EXPECT_TRUE(close(mean(AttribComp::BlockedOnChild),
                      a.analyticBlockedUs))
        << mean(AttribComp::BlockedOnChild) << " vs "
        << a.analyticBlockedUs;
    EXPECT_TRUE(close(mean(AttribComp::ServiceExec) +
                          mean(AttribComp::CoherenceStall),
                      a.analyticRunningUs))
        << mean(AttribComp::ServiceExec) << "+"
        << mean(AttribComp::CoherenceStall) << " vs "
        << a.analyticRunningUs;
}

TEST(Attrib, DisabledRunIsByteIdentical)
{
    // Attribution consumes no randomness and schedules no events:
    // the metrics report must be byte-identical with and without it.
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg = tinyConfig();
    const RunMetrics plain = runExperiment(cat, cfg);
    AttribResult a;
    const RunMetrics attributed =
        runExperiment(cat, cfg, nullptr, &a);
    EXPECT_EQ(metricsJson(plain), metricsJson(attributed));
}

TEST(Attrib, InjectedBottleneckMovesRankOne)
{
    // Slowing one leaf of the deterministic fan-out tree must move
    // the profiler's rank-1 tail component from the storage wait
    // (blocked_on_child) to service execution.
    const auto rank1 = [](const FanoutParams &p) {
        const ServiceCatalog cat = buildSyntheticFanout(p);
        ExperimentConfig cfg;
        cfg.machine = uManycoreParams();
        cfg.cluster.numServers = 1;
        cfg.rpsPerServer = 4000.0;
        cfg.warmup = fromMs(2.0);
        cfg.measure = fromMs(30.0);
        cfg.seed = 7;
        AttribResult a;
        runExperiment(cat, cfg, nullptr, &a);
        EXPECT_EQ(a.ledgerMismatches, 0u);
        const auto ranked = a.profiler.rankedTail();
        EXPECT_FALSE(ranked.empty());
        return ranked.empty() ? AttribComp::IcnOther
                              : ranked.front().first;
    };

    FanoutParams base;
    EXPECT_EQ(rank1(base), AttribComp::BlockedOnChild);

    FanoutParams slowed;
    slowed.slowLeaf = 1;
    slowed.slowFactor = 12.0;
    EXPECT_EQ(rank1(slowed), AttribComp::ServiceExec);
}

// ---------------------------------------------------------------
// Tail profiler mechanics.
// ---------------------------------------------------------------

TEST(TailProfiler, KeepsTopK)
{
    const auto makeRoot = [](RequestId id, Tick latency) {
        AttribRecord r;
        r.id = id;
        r.service = 3;
        r.rootEndpoint = 3;
        r.comp[static_cast<std::size_t>(
            AttribComp::ServiceExec)] = latency;
        return r;
    };

    TailProfiler a(4);
    for (RequestId id = 1; id <= 10; ++id)
        a.ingest(makeRoot(id, id * kUs), id * kUs);

    ASSERT_EQ(a.endpoints().size(), 1u);
    const auto &ep = a.endpoints().begin()->second;
    EXPECT_EQ(ep.roots, 10u);
    ASSERT_EQ(ep.captures.size(), 4u);
    // The retained captures are the 4 slowest (ids 7..10).
    std::set<RequestId> ids;
    for (const TailCapture &c : ep.captures)
        ids.insert(c.id);
    EXPECT_EQ(ids, (std::set<RequestId>{7, 8, 9, 10}));

    // Ranked tail reflects the retained captures: all service_exec.
    const auto ranked = a.rankedTail();
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked.front().first, AttribComp::ServiceExec);
    EXPECT_EQ(ranked.front().second, (7 + 8 + 9 + 10) * kUs);
}

// ---------------------------------------------------------------
// OpenMetrics exporter.
// ---------------------------------------------------------------

TEST(MetricsRegistry, SanitizesNamesIntoNamespace)
{
    EXPECT_EQ(MetricsRegistry::sanitizeName("cluster.time.queued_us"),
              "umany_cluster_time_queued_us");
    EXPECT_EQ(MetricsRegistry::sanitizeName("umany_already"),
              "umany_already");
    // The namespace prefix also rescues a leading digit.
    EXPECT_EQ(MetricsRegistry::sanitizeName("9lives"),
              "umany_9lives");
}

TEST(MetricsRegistry, EmitsWellFormedOpenMetricsText)
{
    MetricsRegistry reg;
    reg.gauge("queue.depth", "Current depth", 3.0,
              {{"server", "0"}});
    reg.counter("roots", "Completed roots", 42.0);
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.add(v * 1000);
    reg.summary("latency_us", "Latency", h, 0.001);

    const std::string text = reg.openMetricsText();
    EXPECT_NE(text.find("# TYPE umany_queue_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("umany_queue_depth{server=\"0\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE umany_roots counter"),
              std::string::npos);
    EXPECT_NE(text.find("umany_roots_total 42"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE umany_latency_us summary"),
              std::string::npos);
    EXPECT_NE(text.find("umany_latency_us{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(text.find("umany_latency_us_count 100"),
              std::string::npos);
    // The exposition must end with the EOF terminator.
    EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
    // Every line is metadata or a sample of a known family.
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        ASSERT_NE(nl, std::string::npos);
        const std::string line = text.substr(pos, nl - pos);
        EXPECT_TRUE(line.rfind("#", 0) == 0 ||
                    line.rfind("umany_", 0) == 0)
            << line;
        pos = nl + 1;
    }
}

// ---------------------------------------------------------------
// Trace-track filtering and RPC flow events.
// ---------------------------------------------------------------

TEST(TraceFilter, ParsesTokenLists)
{
    EXPECT_EQ(parseTraceFilter(""), traceTrackAll);
    EXPECT_EQ(parseTraceFilter("all"), traceTrackAll);
    EXPECT_EQ(parseTraceFilter("village"), traceTrackVillage);
    EXPECT_EQ(parseTraceFilter("village,core"),
              traceTrackVillage | traceTrackCore);
    EXPECT_EQ(parseTraceFilter("net"), traceTrackIcn);
    EXPECT_EQ(parseTraceFilter("client,counters"),
              traceTrackClient | traceTrackCounters);
    // Unknown tokens are ignored; all-unknown falls back to all.
    EXPECT_EQ(parseTraceFilter("bogus"), traceTrackAll);
    EXPECT_EQ(parseTraceFilter("bogus,swq"), traceTrackSwq);
}

TEST(TraceFilter, SinkDropsMaskedTracksSilently)
{
    TraceSink sink(16);
    sink.setFilter(traceTrackCore);
    sink.instant(0, 0, traceVillageTrack(1), "masked");
    sink.instant(0, 0, traceCoreTrack(0), "kept");
    sink.counter(0, 0, "masked", 1.0);
    ASSERT_EQ(sink.events().size(), 1u);
    EXPECT_STREQ(sink.events()[0].name, "kept");
    // Filtered events are not overflow drops.
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceFilter, FilteredExperimentContainsOnlyChosenTracks)
{
    TraceSink sink(1u << 20);
    sink.setFilter(parseTraceFilter("village"));
    {
        ScopedTrace scope(sink);
        const ServiceCatalog cat = buildSocialNetwork();
        runExperiment(cat, tinyConfig());
    }
    ASSERT_GT(sink.events().size(), 0u);
    for (const TraceEvent &e : sink.events())
        EXPECT_EQ(traceTrackCategory(e.tid), traceTrackVillage);
}

TEST(FlowEvents, StitchParentToChildSpans)
{
    TraceSink sink(1u << 20);
    {
        ScopedTrace scope(sink);
        const ServiceCatalog cat = buildSocialNetwork();
        runExperiment(cat, tinyConfig());
    }
    std::map<std::uint64_t, int> starts, ends;
    for (const TraceEvent &e : sink.events()) {
        if (e.phase == TracePhase::FlowStart)
            ++starts[e.id];
        else if (e.phase == TracePhase::FlowEnd)
            ++ends[e.id];
    }
    // The social network fans out, so RPC edges must exist.
    ASSERT_GT(starts.size(), 0u);
    // Every flow id appears exactly once per side, and both sides
    // are present (an unmatched arrow renders as a dangling edge).
    for (const auto &[id, n] : starts) {
        EXPECT_EQ(n, 1) << id;
        EXPECT_EQ(ends.count(id), 1u) << id;
    }
    for (const auto &[id, n] : ends) {
        EXPECT_EQ(n, 1) << id;
        EXPECT_EQ(starts.count(id), 1u) << id;
    }
}

} // namespace
} // namespace umany
