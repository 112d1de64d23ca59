/**
 * @file
 * Rack observability tests: the lb/fabric trace tracks and filter
 * tokens, per-track overflow drop counters, the one-package rack's
 * trace matching runExperiment()'s, cross-package flow
 * stitching in the merged Chrome trace, OpenMetrics conservation
 * (per-package labeled series vs rack aggregates), the rack tail
 * profile's "which package is slow" ranking, and the rack sampler's
 * series schema.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "arch/presets.hh"
#include "driver/report.hh"
#include "fault/fault_plan.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "rack/rack_experiment.hh"
#include "workload/app_graph.hh"

namespace umany
{
namespace
{

/** Small, fast shared run shape (mirrors test_rack.cc). */
ExperimentConfig
smallBase()
{
    ExperimentConfig cfg;
    cfg.machine = uManycoreParams();
    cfg.cluster.numServers = 1;
    cfg.rpsPerServer = 4000.0;
    cfg.arrivals = ArrivalKind::Bursty;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(10.0);
    cfg.seed = 0x5eedull;
    return cfg;
}

/** Slurp a run artifact written next to the test binary. */
std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr) << "missing artifact: " << path;
    std::string text;
    if (f != nullptr) {
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    return text;
}

/**
 * Sum the values of every OpenMetrics sample line whose
 * name-plus-labels starts with @p prefix ("family " with a trailing
 * space matches exactly one unlabeled series; "family{" matches all
 * of a family's labeled series). @p count_out receives how many
 * lines matched.
 */
double
sumSeries(const std::string &text, const std::string &prefix,
          std::size_t *count_out = nullptr)
{
    double sum = 0.0;
    std::size_t count = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue;
        sum += std::atof(line.c_str() + sp + 1);
        ++count;
    }
    if (count_out != nullptr)
        *count_out = count;
    return sum;
}

TEST(TraceFilter, LbAndFabricTokensParse)
{
    EXPECT_EQ(parseTraceFilter("lb"), traceTrackLb);
    EXPECT_EQ(parseTraceFilter("fabric"), traceTrackFabric);
    EXPECT_EQ(parseTraceFilter("lb,fabric"),
              traceTrackLb | traceTrackFabric);
    EXPECT_EQ(parseTraceFilter(""), traceTrackAll);
    EXPECT_EQ(parseTraceFilter("all"), traceTrackAll);
    // A typo next to a valid token warns and is ignored; the valid
    // token still selects its track.
    EXPECT_EQ(parseTraceFilter("village,bogus"), traceTrackVillage);
}

TEST(TraceFilter, AllUnknownTokensFallBackToRecordingEverything)
{
    // A filter that matches nothing must not silently record
    // nothing: it warns and falls back to "all".
    EXPECT_EQ(parseTraceFilter("bogus"), traceTrackAll);
    EXPECT_EQ(parseTraceFilter("lbx,fabrik"), traceTrackAll);
}

TEST(TraceSink, RackTracksMapToTheirOwnCategories)
{
    EXPECT_EQ(traceTrackCategory(traceLbTrack), traceTrackLb);
    EXPECT_EQ(traceTrackCategory(traceFabricTrack),
              traceTrackFabric);
    EXPECT_STREQ(
        traceCategoryName(traceCategoryIndex(traceTrackLb)), "lb");
    EXPECT_STREQ(
        traceCategoryName(traceCategoryIndex(traceTrackFabric)),
        "fabric");
}

TEST(TraceSink, OverflowDropsAreCountedPerTrack)
{
    TraceSink sink(2);
    sink.instant(0, 0, 0, "v");                 // village, kept
    sink.instant(1, 0, 0, "v");                 // village, kept
    sink.instant(2, 0, 0, "v");                 // village, dropped
    sink.instant(3, 0, traceLbTrack, "l");      // lb, dropped
    sink.instant(4, 0, traceFabricTrack, "f");  // fabric, dropped
    EXPECT_EQ(sink.recorded(), 2u);
    EXPECT_EQ(sink.dropped(), 3u);
    const auto &drops = sink.droppedByCategory();
    EXPECT_EQ(drops[traceCategoryIndex(traceTrackVillage)], 1u);
    EXPECT_EQ(drops[traceCategoryIndex(traceTrackLb)], 1u);
    EXPECT_EQ(drops[traceCategoryIndex(traceTrackFabric)], 1u);
    EXPECT_EQ(traceDropBreakdown(sink), "village 1, lb 1, fabric 1");

    TraceSink clean(8);
    EXPECT_EQ(traceDropBreakdown(clean), "");
    sink.clear();
    EXPECT_EQ(traceDropBreakdown(sink), "");
}

TEST(RackObs, OnePackageTraceIsByteIdenticalToClusterRunner)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    ExperimentConfig base = smallBase();
    base.obs.traceOut = "test_rack_obs_flat.json";
    (void)runExperiment(catalog, base);
    const std::string flat = readFile(base.obs.traceOut);
    std::remove(base.obs.traceOut.c_str());

    RackExperimentConfig rcfg;
    rcfg.base = smallBase();
    rcfg.base.obs.traceOut = "test_rack_obs_rack1.json";
    rcfg.rack.packages = 1;
    (void)runRackExperiment(catalog, rcfg);
    const std::string racked = readFile(rcfg.base.obs.traceOut);
    std::remove(rcfg.base.obs.traceOut.c_str());

    // runExperiment() is the rack of one, and the inert rack must
    // not leak into the trace: no pid namespace, no LB/fabric
    // events, same bytes.
    ASSERT_FALSE(flat.empty());
    EXPECT_TRUE(flat == racked)
        << "1-package rack trace diverges from the single-package "
           "runner's";
}

TEST(RackObs, CrossPackageFlowStitchesAreBalanced)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base = smallBase();
    cfg.base.obs.traceOut = "test_rack_obs_flow.json";
    cfg.rack.packages = 2;
    (void)runRackExperiment(catalog, cfg);
    const std::string text = readFile(cfg.base.obs.traceOut);
    std::remove(cfg.base.obs.traceOut.c_str());

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(text, v, &err)) << err;
    // A truncated trace may drop one side of a stitch; the
    // integrity claim below only holds for complete traces.
    ASSERT_EQ(v.find("otherData")->find("dropped")->number, 0.0);

    std::map<std::uint64_t, int> starts, ends;
    std::set<std::string> processes, threads;
    std::uint64_t reqFlows = 0, respFlows = 0;
    int lbRootBegins = 0, lbRootEnds = 0;
    for (const JsonValue &e : v.find("traceEvents")->items) {
        const std::string ph = e.find("ph")->str;
        const std::string name = e.find("name")->str;
        if (ph == "M") {
            if (name == "process_name")
                processes.insert(e.find("args")->find("name")->str);
            if (name == "thread_name")
                threads.insert(e.find("args")->find("name")->str);
            continue;
        }
        if (name == "lb.root") {
            lbRootBegins += ph == "b";
            lbRootEnds += ph == "e";
        }
        if (ph != "s" && ph != "f")
            continue;
        const std::uint64_t id = std::strtoull(
            e.find("id")->str.c_str(), nullptr, 16);
        if ((id & (traceRackReqFlowBit | traceRackRespFlowBit)) == 0)
            continue; // intra-package rpc arrow
        reqFlows += (id & traceRackReqFlowBit) != 0;
        respFlows += (id & traceRackRespFlowBit) != 0;
        if (ph == "s")
            ++starts[id];
        else
            ++ends[id];
    }

    // Both directions were exercised, and no stitch dangles: every
    // rack flow id has exactly one start and one end.
    EXPECT_GT(reqFlows, 0u);
    EXPECT_GT(respFlows, 0u);
    EXPECT_EQ(starts.size(), ends.size());
    for (const auto &[id, n] : starts) {
        EXPECT_EQ(n, 1) << "flow id 0x" << std::hex << id;
        const auto it = ends.find(id);
        ASSERT_NE(it, ends.end())
            << "dangling flow start 0x" << std::hex << id;
        EXPECT_EQ(it->second, 1) << "flow id 0x" << std::hex << id;
    }

    // Every LB-side root span is closed (completion or give-up).
    EXPECT_GT(lbRootBegins, 0);
    EXPECT_EQ(lbRootBegins, lbRootEnds);

    // The pid namespace renders per-package processes plus the rack
    // substrate, and the substrate carries the lb/fabric tracks.
    EXPECT_TRUE(processes.count("pkg0.server0"));
    EXPECT_TRUE(processes.count("pkg1.server0"));
    EXPECT_TRUE(processes.count("rack"));
    EXPECT_FALSE(processes.count("server0"));
    EXPECT_TRUE(threads.count("lb"));
    EXPECT_TRUE(threads.count("fabric"));
}

TEST(RackObs, OpenMetricsPackageSeriesSumToRackAggregates)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base = smallBase();
    // warmup = 0 makes the conservation exact: recording covers
    // every root, so the LB's dispatch counters line up with the
    // packages' observed counts.
    cfg.base.warmup = 0;
    cfg.base.obs.metricsOut = "test_rack_obs_metrics.txt";
    cfg.rack.packages = 3;
    const RunMetrics m = runRackExperiment(catalog, cfg);
    const std::string text = readFile(cfg.base.obs.metricsOut);
    std::remove(cfg.base.obs.metricsOut.c_str());
    ASSERT_GT(m.completed, 0u);

    // Per-package labeled series sum to the rack-wide aggregate.
    std::size_t completedSeries = 0;
    const double pkgCompleted = sumSeries(
        text, "umany_cluster_roots_completed{", &completedSeries);
    EXPECT_EQ(completedSeries, 3u);
    EXPECT_EQ(pkgCompleted,
              sumSeries(text, "umany_rack_roots_completed_total "));
    EXPECT_EQ(pkgCompleted, static_cast<double>(m.completed));

    // LB selection counts (one labeled counter per package) plus
    // sheds account for every observed root.
    std::size_t dispatchSeries = 0;
    const double dispatches = sumSeries(
        text, "umany_rack_lb_dispatches_total{", &dispatchSeries);
    EXPECT_EQ(dispatchSeries, 3u);
    const double sheds =
        sumSeries(text, "umany_rack_lb_sheds_total{");
    const double observed =
        sumSeries(text, "umany_rack_roots_observed_total ");
    EXPECT_EQ(dispatches + sheds, observed);
    EXPECT_EQ(observed, static_cast<double>(m.observed));

    // The selection counters are tagged with the policy that made
    // them (rr is the default).
    EXPECT_NE(text.find("umany_rack_lb_dispatches_total{"
                        "package=\"0\",policy=\"rr\"}"),
              std::string::npos);
}

TEST(RackObs, TailProfileNamesTheDeadPackage)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base = smallBase();
    cfg.base.cluster.recovery.enabled = true;
    cfg.base.obs.tailProfile = "test_rack_obs_tail.json";
    cfg.rack.packages = 2;
    // No failover: the LB keeps dispatching into the dead package,
    // so half the measured load gives up as rejections there and
    // the ranking must single it out.
    cfg.rack.failover = false;
    FaultPlan plan;
    FaultEvent down;
    down.at = cfg.base.warmup;
    down.kind = FaultKind::PackageDown;
    down.target = 1;
    plan.add(down);
    cfg.base.faults = plan;

    (void)runRackExperiment(catalog, cfg);
    const std::string text = readFile(cfg.base.obs.tailProfile);
    std::remove(cfg.base.obs.tailProfile.c_str());

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(text, v, &err)) << err;
    const JsonValue *rack = v.find("rack");
    ASSERT_NE(rack, nullptr);
    EXPECT_EQ(rack->find("worst_package")->number, 1.0);

    const JsonValue *pkgs = rack->find("packages");
    ASSERT_NE(pkgs, nullptr);
    ASSERT_EQ(pkgs->items.size(), 2u);
    // Ranked sickest-first: the dead package leads with a strictly
    // higher rejected fraction, and each entry carries the hop
    // split and its ledger-component ranking.
    const JsonValue &worst = pkgs->items[0];
    const JsonValue &healthy = pkgs->items[1];
    EXPECT_EQ(worst.find("package")->number, 1.0);
    EXPECT_GT(worst.find("rejected_fraction")->number,
              healthy.find("rejected_fraction")->number);
    for (const JsonValue &p : pkgs->items) {
        ASSERT_NE(p.find("lb_dispatches"), nullptr);
        ASSERT_NE(p.find("hop_queue_us"), nullptr);
        ASSERT_NE(p.find("hop_transit_us"), nullptr);
        ASSERT_NE(p.find("hop_queue_us")->find("p99"), nullptr);
        ASSERT_TRUE(p.find("tail_components")->isArray());
    }
    // The healthy package completed work, so its unloaded fabric
    // transit is nonzero while ranked components stay ordered.
    EXPECT_GT(healthy.find("hop_transit_us")->find("mean")->number,
              0.0);
}

TEST(RackObs, RackSamplerSeriesCoverEveryPackageAndTheFabric)
{
    const ServiceCatalog catalog = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base = smallBase();
    cfg.base.obs.sampleInterval = fromUs(500.0);
    cfg.base.obs.statsJson = "test_rack_obs_stats.json";
    cfg.rack.packages = 2;
    (void)runRackExperiment(catalog, cfg);
    const std::string text = readFile(cfg.base.obs.statsJson);
    std::remove(cfg.base.obs.statsJson.c_str());

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(text, v, &err)) << err;
    const JsonValue *s = v.find("samples");
    ASSERT_NE(s, nullptr);
    ASSERT_TRUE(s->isObject());
    EXPECT_DOUBLE_EQ(s->find("interval_us")->number, 500.0);

    const std::size_t n = s->find("ts_us")->items.size();
    ASSERT_GT(n, 0u);
    EXPECT_EQ(s->find("in_flight")->items.size(), n);
    ASSERT_EQ(s->find("fabric_link_util")->items.size(), n);
    for (const JsonValue &u : s->find("fabric_link_util")->items) {
        EXPECT_GE(u.number, 0.0);
        EXPECT_LE(u.number, 1.0);
    }

    const JsonValue *pkgs = s->find("packages");
    ASSERT_TRUE(pkgs->isArray());
    ASSERT_EQ(pkgs->items.size(), 2u);
    for (const JsonValue &p : pkgs->items) {
        EXPECT_EQ(p.find("lb_inflight")->items.size(), n);
        EXPECT_EQ(p.find("queue_depth")->items.size(), n);
        EXPECT_EQ(p.find("max_village_depth")->items.size(), n);
        ASSERT_EQ(p.find("core_util")->items.size(), n);
        for (const JsonValue &u : p.find("core_util")->items) {
            EXPECT_GE(u.number, 0.0);
            EXPECT_LE(u.number, 1.0);
        }
    }
}

} // namespace
} // namespace umany
