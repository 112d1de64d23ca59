/**
 * @file
 * Tests for the observability subsystem: the JSON writer/parser, the
 * TraceSink buffer and its overflow policy, span pairing over a real
 * run, the Chrome trace_event exporter, the machine-readable stats
 * and metrics artifacts, and the periodic sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "obs/chrome_trace.hh"
#include "obs/json.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sched/request.hh"
#include "workload/app_graph.hh"

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
    cfg.rpsPerServer = 1000.0;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(20.0);
    cfg.seed = 7;
    return cfg;
}

/** Run a tiny experiment with a trace sink installed. */
RunMetrics
tracedRun(TraceSink &sink, ExperimentConfig cfg = tinyConfig())
{
    ScopedTrace scope(sink);
    const ServiceCatalog cat = buildSocialNetwork();
    return runExperiment(cat, cfg);
}

TEST(Json, WriterProducesParseableNesting)
{
    JsonWriter w;
    w.beginObject();
    w.key("s").value("a \"quoted\"\nstring");
    w.key("n").value(2.5);
    w.key("i").value(std::uint64_t{18446744073709551615ull});
    w.key("b").value(true);
    w.key("x").null();
    w.key("arr").beginArray().value(1.0).value(2.0).endArray();
    w.key("obj").beginObject().key("k").value(-3.0).endObject();
    w.endObject();

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(w.str(), v, &err)) << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("s")->str, "a \"quoted\"\nstring");
    EXPECT_DOUBLE_EQ(v.find("n")->number, 2.5);
    EXPECT_TRUE(v.find("b")->boolean);
    EXPECT_EQ(v.find("x")->kind, JsonValue::Kind::Null);
    ASSERT_TRUE(v.find("arr")->isArray());
    EXPECT_EQ(v.find("arr")->items.size(), 2u);
    EXPECT_DOUBLE_EQ(v.find("obj")->find("k")->number, -3.0);
}

/** Re-serialize a parsed document with the writer. */
void
rewriteJson(JsonWriter &w, const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        w.null();
        break;
      case JsonValue::Kind::Bool:
        w.value(v.boolean);
        break;
      case JsonValue::Kind::Number:
        w.value(v.number);
        break;
      case JsonValue::Kind::String:
        w.value(v.str);
        break;
      case JsonValue::Kind::Array:
        w.beginArray();
        for (const JsonValue &item : v.items)
            rewriteJson(w, item);
        w.endArray();
        break;
      case JsonValue::Kind::Object:
        w.beginObject();
        for (const auto &[key, member] : v.members) {
            w.key(key);
            rewriteJson(w, member);
        }
        w.endObject();
        break;
    }
}

/** Structural equality of two parsed documents. */
bool
jsonEqual(const JsonValue &a, const JsonValue &b)
{
    if (a.kind != b.kind)
        return false;
    switch (a.kind) {
      case JsonValue::Kind::Null:
        return true;
      case JsonValue::Kind::Bool:
        return a.boolean == b.boolean;
      case JsonValue::Kind::Number:
        return a.number == b.number;
      case JsonValue::Kind::String:
        return a.str == b.str;
      case JsonValue::Kind::Array:
        if (a.items.size() != b.items.size())
            return false;
        for (std::size_t i = 0; i < a.items.size(); ++i)
            if (!jsonEqual(a.items[i], b.items[i]))
                return false;
        return true;
      case JsonValue::Kind::Object:
        if (a.members.size() != b.members.size())
            return false;
        for (std::size_t i = 0; i < a.members.size(); ++i) {
            if (a.members[i].first != b.members[i].first ||
                !jsonEqual(a.members[i].second,
                           b.members[i].second)) {
                return false;
            }
        }
        return true;
    }
    return false;
}

TEST(Json, RoundTripsNestedDocumentsWithEscapes)
{
    // write -> parse -> rewrite -> reparse must be a fixed point:
    // the two serializations are byte-identical and the two parse
    // trees structurally equal, including every escape class the
    // writer can produce (quotes, backslashes, control chars,
    // newlines/tabs) at several nesting depths.
    JsonWriter w;
    w.beginObject();
    w.key("plain").value("text");
    w.key("esc\"key\\").value("quote \" backslash \\ slash /");
    w.key("ctl").value(std::string("nul \x01 bell \x07 tab\t"
                                   "newline\nreturn\r"));
    w.key("unicodeish").value("caf\xc3\xa9 \xe2\x9c\x93");
    w.key("nest").beginArray();
    w.beginObject()
        .key("inner\n")
        .beginArray()
        .value("deep \"s\"")
        .value(-0.125)
        .value(false)
        .null()
        .endArray()
        .endObject();
    w.beginArray().beginArray().value(1.0).endArray().endArray();
    w.endArray();
    w.key("empty_obj").beginObject().endObject();
    w.key("empty_arr").beginArray().endArray();
    w.endObject();
    const std::string first = w.str();

    JsonValue v1;
    std::string err;
    ASSERT_TRUE(jsonParse(first, v1, &err)) << err;

    JsonWriter w2;
    rewriteJson(w2, v1);
    const std::string second = w2.str();
    EXPECT_EQ(first, second);

    JsonValue v2;
    ASSERT_TRUE(jsonParse(second, v2, &err)) << err;
    EXPECT_TRUE(jsonEqual(v1, v2));

    // Spot-check the lossy-prone payloads survived both trips.
    EXPECT_EQ(v2.find("esc\"key\\")->str,
              "quote \" backslash \\ slash /");
    EXPECT_EQ(v2.find("ctl")->str,
              std::string("nul \x01 bell \x07 tab\tnewline\n"
                          "return\r"));
    EXPECT_EQ(v2.find("unicodeish")->str,
              "caf\xc3\xa9 \xe2\x9c\x93");
    const JsonValue *deep =
        v2.find("nest")->items[0].find("inner\n");
    ASSERT_NE(deep, nullptr);
    EXPECT_EQ(deep->items[0].str, "deep \"s\"");
    EXPECT_DOUBLE_EQ(deep->items[1].number, -0.125);
}

TEST(Json, ParserRejectsMalformedInput)
{
    JsonValue v;
    EXPECT_FALSE(jsonParse("{\"a\":}", v));
    EXPECT_FALSE(jsonParse("[1,2", v));
    EXPECT_FALSE(jsonParse("\"unterminated", v));
    EXPECT_FALSE(jsonParse("{} trailing", v));
    EXPECT_TRUE(jsonParse("  [1, 2, 3]  ", v));
}

TEST(TraceSink, OverflowDropsAndCounts)
{
    TraceSink sink(4);
    for (int i = 0; i < 10; ++i)
        sink.instant(static_cast<Tick>(i), 0, 0, "x");
    EXPECT_EQ(sink.recorded(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);
    EXPECT_EQ(sink.events().size(), 4u);
}

TEST(TraceSink, InactiveByDefaultAndScopedInstall)
{
    EXPECT_EQ(TraceSink::active(), nullptr);
    {
        TraceSink sink;
        ScopedTrace scope(sink);
        EXPECT_EQ(TraceSink::active(), &sink);
    }
    EXPECT_EQ(TraceSink::active(), nullptr);
}

TEST(Trace, LifecycleSpansArePairedAndComplete)
{
    TraceSink sink;
    tracedRun(sink);
    ASSERT_GT(sink.recorded(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);

    // Async spans are keyed by (name, id): every begin must have
    // exactly one end (the overflow policy exists to preserve this).
    std::map<std::pair<std::string, std::uint64_t>, int> open;
    std::set<std::string> names;
    int dur_depth = 0;
    for (const TraceEvent &e : sink.events()) {
        names.insert(e.name);
        if (e.phase == TracePhase::SpanBegin)
            ++open[{e.name, e.id}];
        else if (e.phase == TracePhase::SpanEnd)
            --open[{e.name, e.id}];
        else if (e.phase == TracePhase::DurBegin)
            ++dur_depth;
        else if (e.phase == TracePhase::DurEnd)
            --dur_depth;
    }
    for (const auto &[key, n] : open)
        EXPECT_EQ(n, 0) << key.first << " id=" << key.second;
    EXPECT_EQ(dur_depth, 0);

    // Every lifecycle state appears somewhere in the run: social
    // network endpoints block on RPC/storage call groups, so some
    // request visits created/queued/running/blocked/ready/finished.
    for (const char *state :
         {"created", "queued", "running", "blocked", "ready"}) {
        EXPECT_TRUE(names.count(state)) << state;
    }
    EXPECT_TRUE(names.count("finished"));
    // Substrate events ride along (μManycore = hardware RQs, so no
    // software-dispatcher events here; see SwQueuePathTraced).
    EXPECT_TRUE(names.count("segment"));
    EXPECT_TRUE(names.count("icn.request"));
}

TEST(Trace, SwQueuePathTraced)
{
    TraceSink sink;
    ExperimentConfig cfg = tinyConfig();
    cfg.machine = scaleOutParams();
    tracedRun(sink, cfg);

    std::set<std::string> names;
    for (const TraceEvent &e : sink.events())
        names.insert(e.name);
    for (const char *name :
         {"dispatch", "swq.enqueue", "swq.dequeue"}) {
        EXPECT_TRUE(names.count(name)) << name;
    }
}

TEST(Trace, ChildSpansCrossServers)
{
    TraceSink sink;
    tracedRun(sink);

    // RPC children get their own request ids; with 2 servers the
    // fan-out must place some child on a different server (pid) than
    // its root. Collect the servers each lifecycle span ran on.
    std::map<std::uint64_t, std::set<std::uint32_t>> by_req;
    for (const TraceEvent &e : sink.events()) {
        if (e.phase == TracePhase::SpanBegin ||
            e.phase == TracePhase::SpanEnd) {
            by_req[e.id].insert(e.pid);
        }
    }
    ASSERT_GT(by_req.size(), 1u);
    std::set<std::uint32_t> servers;
    for (const auto &[id, pids] : by_req)
        servers.insert(pids.begin(), pids.end());
    EXPECT_GT(servers.size(), 1u);
}

TEST(Trace, ChromeExportIsValidJson)
{
    TraceSink sink;
    tracedRun(sink);

    const std::string doc = chromeTraceJson(sink);
    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(doc, v, &err)) << err;
    ASSERT_TRUE(v.isObject());

    const JsonValue *events = v.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->items.size(), 0u);

    std::set<std::string> phases;
    std::size_t metadata = 0;
    for (const JsonValue &e : events->items) {
        ASSERT_TRUE(e.isObject());
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        phases.insert(ph->str);
        if (ph->str == "M") {
            ++metadata;
            continue;
        }
        EXPECT_NE(e.find("ts"), nullptr);
        EXPECT_NE(e.find("pid"), nullptr);
        EXPECT_NE(e.find("name"), nullptr);
        if (ph->str == "b" || ph->str == "e") {
            // Async events need a cat and an id to correlate.
            EXPECT_NE(e.find("cat"), nullptr);
            EXPECT_NE(e.find("id"), nullptr);
        }
    }
    // The run exercises async spans, durations, and instants, and
    // the exporter names processes and tracks.
    for (const char *ph : {"b", "e", "B", "E", "i", "M"})
        EXPECT_TRUE(phases.count(ph)) << ph;
    EXPECT_GT(metadata, 0u);

    const JsonValue *other = v.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_DOUBLE_EQ(other->find("dropped")->number, 0.0);
}

TEST(Trace, WriteChromeTraceProducesLoadableFile)
{
    TraceSink sink;
    ExperimentConfig cfg = tinyConfig();
    cfg.obs.traceOut = "test_obs_trace.json";
    {
        // runExperiment installs its own sink for the file path; the
        // outer sink must be restored afterwards.
        ScopedTrace scope(sink);
        const ServiceCatalog cat = buildSocialNetwork();
        runExperiment(cat, cfg);
        EXPECT_EQ(TraceSink::active(), &sink);
    }

    std::FILE *f = std::fopen(cfg.obs.traceOut.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(cfg.obs.traceOut.c_str());

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(text, v, &err)) << err;
    ASSERT_TRUE(v.find("traceEvents")->isArray());
    EXPECT_GT(v.find("traceEvents")->items.size(), 0u);
}

TEST(Stats, FormatJsonRoundTripsNumerically)
{
    const ServiceCatalog cat = buildSocialNetwork();
    StatsDump dump;
    runExperiment(cat, tinyConfig(), &dump);
    ASSERT_GT(dump.entries().size(), 0u);

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(dump.formatJson(), v, &err)) << err;
    const JsonValue *stats = v.find("stats");
    ASSERT_NE(stats, nullptr);
    ASSERT_TRUE(stats->isArray());
    ASSERT_EQ(stats->items.size(), dump.entries().size());

    for (const JsonValue &e : stats->items) {
        const std::string &name = e.find("name")->str;
        EXPECT_TRUE(dump.has(name)) << name;
        // The JSON value must agree numerically with the in-memory
        // (and thus text-format) value.
        EXPECT_DOUBLE_EQ(e.find("value")->number, dump.value(name))
            << name;
    }
}

TEST(Stats, FormatJsonEmitsSortedNames)
{
    // Diff-stable artifacts: names come out sorted regardless of
    // the order stats were collected in.
    StatsDump dump;
    dump.add("zeta.last", 3.0, "added first");
    dump.add("alpha.first", 1.0, "added last");
    dump.add("mid.dle", 2.0, "added in between");

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(dump.formatJson(), v, &err)) << err;
    const JsonValue *stats = v.find("stats");
    ASSERT_NE(stats, nullptr);
    std::vector<std::string> names;
    for (const JsonValue &e : stats->items)
        names.push_back(e.find("name")->str);
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(names, sorted);
    EXPECT_EQ(names.size(), 3u);
}

TEST(Report, MetricsJsonMatchesStruct)
{
    const ServiceCatalog cat = buildSocialNetwork();
    const RunMetrics m = runExperiment(cat, tinyConfig());

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(metricsJson(m), v, &err)) << err;

    const JsonValue *overall = v.find("overall");
    ASSERT_NE(overall, nullptr);
    EXPECT_DOUBLE_EQ(overall->find("avg_ms")->number, m.overall.avgMs);
    EXPECT_DOUBLE_EQ(overall->find("p99_ms")->number, m.overall.p99Ms);
    EXPECT_DOUBLE_EQ(overall->find("samples")->number,
                     static_cast<double>(m.overall.samples));
    EXPECT_DOUBLE_EQ(v.find("throughput_rps")->number,
                     m.throughputRps);
    EXPECT_DOUBLE_EQ(v.find("completed")->number,
                     static_cast<double>(m.completed));
    EXPECT_DOUBLE_EQ(v.find("qos_violation_rate")->number,
                     m.qosViolationRate());
    const JsonValue *eps = v.find("endpoints");
    ASSERT_NE(eps, nullptr);
    EXPECT_EQ(eps->members.size(), m.perEndpoint.size());
    for (const auto &[name, stats] : m.perEndpoint) {
        const JsonValue *ep = eps->find(name);
        ASSERT_NE(ep, nullptr) << name;
        EXPECT_DOUBLE_EQ(ep->find("p50_ms")->number, stats.p50Ms);
    }
}

TEST(Sampler, SamplesAtExactIntervalAndStops)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg = tinyConfig();
    const Tick interval = fromUs(500.0);

    EventQueue eq;
    ClusterSim sim(eq, cat, cfg.machine, cfg.cluster);
    Sampler sampler(eq, sim, interval);
    const Tick until = fromMs(10.0);
    sampler.start(until);

    LoadGenParams lp;
    lp.rps = 2000.0;
    lp.stop = until;
    lp.seed = 11;
    LoadGenerator gen(eq, cat, lp,
                      [&sim](ServiceId ep) { sim.submitRoot(ep); });
    gen.start();
    // The sampler is bounded, so the queue still drains.
    EXPECT_TRUE(eq.runUntil(until + fromSec(2.0)));

    ASSERT_EQ(sampler.samples().size(),
              static_cast<std::size_t>(until / interval));
    Tick expect = interval;
    for (const Sampler::Sample &s : sampler.samples()) {
        EXPECT_EQ(s.ts, expect);
        expect += interval;
        EXPECT_EQ(s.servers.size(), cfg.cluster.numServers);
        for (const Sampler::ServerSample &sv : s.servers) {
            EXPECT_GE(sv.coreUtil, 0.0);
            EXPECT_LE(sv.coreUtil, 1.0);
            EXPECT_GE(sv.queueDepth, 0.0);
            EXPECT_GE(sv.maxVillageDepth, 0.0);
            EXPECT_LE(sv.maxVillageDepth, sv.queueDepth);
        }
    }

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(sampler.toJson(), v, &err)) << err;
    EXPECT_DOUBLE_EQ(v.find("interval_us")->number, toUs(interval));
    EXPECT_EQ(v.find("ts_us")->items.size(),
              sampler.samples().size());
    EXPECT_EQ(v.find("servers")->items.size(),
              static_cast<std::size_t>(cfg.cluster.numServers));
}

TEST(Sampler, EmitsFinalSampleExactlyAtStop)
{
    // A window that is NOT a multiple of the interval: the sampler
    // must clamp the last interval and emit one final sample exactly
    // at the stop tick, so the series always covers the full
    // measurement window.
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg = tinyConfig();
    const Tick interval = fromUs(700.0);
    const Tick until = fromMs(2.0); // 2000us = 2*700 + 600

    EventQueue eq;
    ClusterSim sim(eq, cat, cfg.machine, cfg.cluster);
    Sampler sampler(eq, sim, interval);
    sampler.start(until);

    LoadGenParams lp;
    lp.rps = 2000.0;
    lp.stop = until;
    lp.seed = 11;
    LoadGenerator gen(eq, cat, lp,
                      [&sim](ServiceId ep) { sim.submitRoot(ep); });
    gen.start();
    EXPECT_TRUE(eq.runUntil(until + fromSec(2.0)));

    ASSERT_EQ(sampler.samples().size(), 3u);
    EXPECT_EQ(sampler.samples()[0].ts, interval);
    EXPECT_EQ(sampler.samples()[1].ts, 2 * interval);
    EXPECT_EQ(sampler.samples().back().ts, until);
}

TEST(Artifact, RunArtifactIsSelfContained)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg = tinyConfig();
    cfg.obs.statsJson = "test_obs_artifact.json";
    cfg.obs.sampleInterval = fromUs(1000.0);
    const RunMetrics m = runExperiment(cat, cfg);

    std::FILE *f = std::fopen(cfg.obs.statsJson.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(cfg.obs.statsJson.c_str());

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(text, v, &err)) << err;
    EXPECT_TRUE(v.find("drained")->boolean);
    const JsonValue *metrics = v.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_DOUBLE_EQ(metrics->find("throughput_rps")->number,
                     m.throughputRps);
    ASSERT_NE(v.find("stats"), nullptr);
    EXPECT_TRUE(v.find("stats")->find("stats")->isArray());
    const JsonValue *samples = v.find("samples");
    ASSERT_NE(samples, nullptr);
    ASSERT_TRUE(samples->isObject());
    EXPECT_GT(samples->find("ts_us")->items.size(), 0u);
}

} // namespace
} // namespace umany
