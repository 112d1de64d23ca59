/**
 * @file
 * Tests for the experiment driver: metric extraction, the
 * experiment runner, contention-free baselines, and the QoS search
 * (on deliberately small configurations for speed).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "driver/qos.hh"
#include "driver/report.hh"
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
    cfg.rpsPerServer = 2000.0;
    cfg.warmup = fromMs(5.0);
    cfg.measure = fromMs(50.0);
    cfg.seed = 3;
    return cfg;
}

TEST(Metrics, LatencyStatsFromHistogram)
{
    Histogram h;
    h.add(fromMs(1.0));
    h.add(fromMs(2.0));
    h.add(fromMs(3.0));
    const LatencyStats s = latencyStatsFrom(h);
    EXPECT_EQ(s.samples, 3u);
    EXPECT_NEAR(s.avgMs, 2.0, 0.05);
    EXPECT_NEAR(s.p50Ms, 2.0, 0.1);
    EXPECT_GE(s.p99Ms, s.p50Ms);
}

TEST(Metrics, RatesComputed)
{
    RunMetrics m;
    m.observed = 100;
    m.rejected = 5;
    m.qosViolations = 10;
    EXPECT_DOUBLE_EQ(m.rejectionRate(), 0.05);
    EXPECT_DOUBLE_EQ(m.qosViolationRate(), 0.15);
    RunMetrics empty;
    EXPECT_EQ(empty.qosViolationRate(), 0.0);
}

TEST(Experiment, ProducesSamplesForEveryEndpoint)
{
    const ServiceCatalog cat = buildSocialNetwork();
    const RunMetrics m = runExperiment(cat, tinyConfig());
    EXPECT_EQ(m.perEndpoint.size(), 8u);
    for (const auto &[name, stats] : m.perEndpoint) {
        EXPECT_GT(stats.samples, 0u) << name;
        EXPECT_GT(stats.avgMs, 0.0) << name;
        EXPECT_GE(stats.p99Ms, stats.p50Ms) << name;
    }
    EXPECT_GT(m.throughputRps, 0.0);
    EXPECT_GT(m.avgCoreUtilization, 0.0);
    EXPECT_EQ(m.rejected, 0u);
}

TEST(Experiment, ThroughputTracksOfferedLoadWhenUnsaturated)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg = tinyConfig();
    cfg.measure = fromMs(100.0);
    const RunMetrics m = runExperiment(cat, cfg);
    // 2 servers x 2000 RPS offered.
    EXPECT_NEAR(m.throughputRps, 4000.0, 800.0);
}

TEST(Experiment, WarmupExcludedFromSamples)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg = tinyConfig();
    cfg.warmup = fromMs(40.0);
    cfg.measure = fromMs(10.0);
    const RunMetrics m = runExperiment(cat, cfg);
    // Roughly measure/total of the requests are recorded.
    EXPECT_LT(m.observed, 4000u * 50 / 1000 / 2);
}

TEST(Experiment, ContentionFreeAveragesPositiveAndOrdered)
{
    const ServiceCatalog cat = buildSocialNetwork();
    const auto avgs = contentionFreeAverages(cat, tinyConfig());
    EXPECT_EQ(avgs.size(), 8u);
    for (const auto &[ep, avg] : avgs)
        EXPECT_GT(avg, 0u);
    // CPost is the deepest endpoint; UrlShort the shallowest.
    const ServiceId cpost = cat.byName("CPost")->id;
    const ServiceId urlshort = cat.byName("UrlShort")->id;
    EXPECT_GT(avgs.at(cpost), avgs.at(urlshort));
}

TEST(Experiment, ContentionFreeAveragesIgnoreLoadFaultsAndArtifacts)
{
    // The oracle is a quiet run of the base machine: the base run's
    // arrivals, load, faults, QoS thresholds and artifacts must not
    // leak into it.
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig base = tinyConfig();
    base.arrivals = ArrivalKind::Bursty;
    base.rpsPerServer = 40000.0;
    for (VillageId v = 0; v < 4; ++v) {
        FaultEvent e;
        e.kind = FaultKind::VillageDown;
        e.target = v;
        base.faults.add(e);
    }
    base.qosThresholds[cat.endpoints().front()] = fromUs(1.0);
    base.obs.traceOut = "test_cfa_trace.json";
    base.obs.statsJson = "test_cfa_stats.json";
    base.obs.tailProfile = "test_cfa_tail.json";
    base.obs.metricsOut = "test_cfa_metrics.txt";
    base.obs.simProfile = "test_cfa_simprof.json";
    const std::vector<std::string> artifacts = {
        base.obs.traceOut, base.obs.statsJson, base.obs.tailProfile,
        base.obs.metricsOut, base.obs.simProfile};
    for (const std::string &path : artifacts)
        std::remove(path.c_str());

    EXPECT_EQ(contentionFreeAverages(cat, base),
              contentionFreeAverages(cat, tinyConfig()));
    for (const std::string &path : artifacts)
        EXPECT_FALSE(std::ifstream(path).good()) << path;
}

TEST(Qos, SearchFindsThresholdBetweenBounds)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig base = tinyConfig();
    base.cluster.numServers = 1;
    base.measure = fromMs(40.0);
    QosSearchConfig qcfg;
    qcfg.loRps = 500.0;
    qcfg.hiRps = 50000.0;
    qcfg.iterations = 4;
    const QosResult r = findMaxQosThroughput(cat, base, qcfg);
    EXPECT_GE(r.maxRpsPerServer, qcfg.loRps);
    EXPECT_LE(r.maxRpsPerServer, qcfg.hiRps);
    EXPECT_EQ(r.thresholds.size(), 8u);
    EXPECT_LE(r.violationRateAtMax, qcfg.maxViolationRate);
}

/** One probe of referenceSearch(), run in full. */
struct FullProbe
{
    double rps = 0.0;
    RunMetrics metrics;
};

/**
 * driver/qos.cc's search with every probe run in full through
 * runExperiment(): the reference the early-stopping search must
 * match exactly.
 */
QosResult
referenceSearch(const ServiceCatalog &cat, const ExperimentConfig &base,
                const QosSearchConfig &q, std::vector<FullProbe> &probes)
{
    QosResult r;
    for (const auto &[ep, avg] : contentionFreeAverages(cat, base)) {
        r.thresholds[ep] = static_cast<Tick>(
            q.qosMultiplier * static_cast<double>(avg));
    }
    const auto rate = [&](double rps) {
        ExperimentConfig cfg = base;
        cfg.rpsPerServer = rps;
        cfg.qosThresholds = r.thresholds;
        probes.push_back({rps, runExperiment(cat, cfg)});
        return probes.back().metrics.qosViolationRate();
    };
    double lo = q.loRps;
    double hi = q.hiRps;
    r.maxRpsPerServer = lo;
    r.violationRateAtMax = rate(lo);
    if (r.violationRateAtMax > q.maxViolationRate)
        return r;
    for (std::uint32_t i = 0; i < q.iterations; ++i) {
        const double mid = std::exp(0.5 * (std::log(lo) + std::log(hi)));
        const double v = rate(mid);
        if (v <= q.maxViolationRate) {
            r.maxRpsPerServer = mid;
            r.violationRateAtMax = v;
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return r;
}

TEST(Qos, EarlyStoppedSearchMatchesFullProbes)
{
    // The fig18-small search shape (1 server, bursty arrivals, four
    // halvings of [2K, 64K]) on both contrast machines and three
    // cluster seeds; the last case fails already at loRps, so the
    // search must report that probe's full-run rate.
    const ServiceCatalog cat = buildSocialNetwork();
    struct Case
    {
        MachineParams machine;
        std::uint64_t clusterSeed;
        double loRps;
    };
    const ClusterSimParams defaults;
    std::vector<Case> cases;
    for (const std::uint64_t seed :
         {defaults.seed, std::uint64_t{7}, std::uint64_t{11}}) {
        cases.push_back({serverClassParams(), seed, 2000.0});
        cases.push_back({uManycoreParams(), seed, 2000.0});
    }
    cases.push_back({serverClassParams(), defaults.seed, 40000.0});

    std::uint64_t stopped = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.machine.name + " cluster seed " +
                     std::to_string(c.clusterSeed) + " loRps " +
                     std::to_string(c.loRps));
        ExperimentConfig base = tinyConfig();
        base.machine = c.machine;
        base.cluster.numServers = 1;
        base.cluster.seed = c.clusterSeed;
        base.arrivals = ArrivalKind::Bursty;
        base.measure = fromMs(30.0);
        base.seed = 0x5eedull;
        QosSearchConfig q;
        q.loRps = c.loRps;
        q.hiRps = 64000.0;
        q.iterations = 4;

        std::vector<FullProbe> probes;
        const QosResult want = referenceSearch(cat, base, q, probes);
        const QosResult got = findMaxQosThroughput(cat, base, q);
        EXPECT_EQ(got.maxRpsPerServer, want.maxRpsPerServer);
        EXPECT_EQ(got.violationRateAtMax, want.violationRateAtMax);
        EXPECT_EQ(got.thresholds, want.thresholds);
        if (c.loRps > 2000.0) {
            EXPECT_EQ(probes.size(), 1u);
            EXPECT_GT(got.violationRateAtMax, q.maxViolationRate);
        }

        // Every probe keeps its verdict; one that passes runs in full.
        for (const FullProbe &full : probes) {
            ExperimentConfig cfg = base;
            cfg.rpsPerServer = full.rps;
            cfg.qosThresholds = want.thresholds;
            const RunMetrics m =
                runQosProbe(cat, cfg, q.maxViolationRate);
            const bool fails = full.metrics.qosViolationRate() >
                               q.maxViolationRate;
            EXPECT_EQ(m.qosViolationRate() > q.maxViolationRate,
                      fails)
                << full.rps;
            EXPECT_LE(m.observed, full.metrics.observed) << full.rps;
            if (!fails) {
                EXPECT_EQ(m.observed, full.metrics.observed)
                    << full.rps;
            }
            if (m.observed < full.metrics.observed)
                ++stopped;
        }
    }
    EXPECT_GT(stopped, 0u);
}

TEST(Report, MeanReductionGeometric)
{
    RunMetrics a, b;
    a.perEndpoint["x"].p99Ms = 4.0;
    a.perEndpoint["y"].p99Ms = 9.0;
    b.perEndpoint["x"].p99Ms = 1.0;
    b.perEndpoint["y"].p99Ms = 1.0;
    const double r = meanReduction(
        a, b, [](const LatencyStats &s) { return s.p99Ms; });
    EXPECT_DOUBLE_EQ(r, 6.0); // sqrt(4 * 9)
}

TEST(Report, MeanReductionSkipsMissingApps)
{
    RunMetrics a, b;
    a.perEndpoint["x"].p99Ms = 4.0;
    a.perEndpoint["z"].p99Ms = 100.0;
    b.perEndpoint["x"].p99Ms = 2.0;
    EXPECT_DOUBLE_EQ(
        meanReduction(a, b,
                      [](const LatencyStats &s) { return s.p99Ms; }),
        2.0);
}

} // namespace
} // namespace umany
