/**
 * @file
 * Tests for the perf-trajectory gate: the fixed metric spec table,
 * regression detection in both directions of goodness, the absolute
 * slack for near-zero metrics, schema/parse failure handling, and
 * the informational-vs-gated distinction that keeps noisy metrics
 * from flipping the exit signal.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "driver/perf_trend.hh"
#include "sim/logging.hh"

namespace umany
{
namespace
{

/** A schema-valid document with adjustable knobs. */
std::string
doc(double fifo_eps, double allocs, double wall_ms, double p99_ms)
{
    return strprintf(
        "{\"schema\":\"umany-perf-smoke-v1\","
        "\"host\":{\"hardware_concurrency\":8},"
        "\"kernel\":{"
        "\"fifo_64k\":{\"events_per_sec\":%f,"
        "\"allocs_per_event\":%f},"
        "\"random_64k\":{\"events_per_sec\":8.1e6,"
        "\"allocs_per_event\":0.0},"
        "\"chain_100k\":{\"events_per_sec\":4.5e7,"
        "\"allocs_per_event\":0.0}},"
        "\"fig14_small\":{\"wall_ms\":%f,\"sim_events\":37000,"
        "\"events_per_sec\":7.5e6,\"throughput_rps\":6400.0,"
        "\"p99_ms\":%f},"
        "\"sweep\":{\"points\":4,\"jobs\":8,\"wall_ms_jobs1\":20.0,"
        "\"wall_ms_jobsN\":6.0,\"speedup\":3.3}}",
        fifo_eps, allocs, wall_ms, p99_ms);
}

std::string
baseDoc()
{
    return doc(8.0e6, 0.0, 5.0, 5.5);
}

TEST(PerfTrend, SpecTableCoversTheSchema)
{
    std::set<std::string> paths;
    bool any_gated = false;
    bool any_informational = false;
    for (const PerfMetricSpec &s : perfMetricSpecs()) {
        paths.insert(s.path);
        any_gated |= s.gated;
        any_informational |= !s.gated;
    }
    EXPECT_EQ(paths.size(), perfMetricSpecs().size())
        << "duplicate metric path in the spec table";
    EXPECT_TRUE(any_gated);
    EXPECT_TRUE(any_informational);
    // Every spec path resolves against a schema-valid document.
    const PerfTrendResult r =
        comparePerf(baseDoc(), baseDoc(), 0.35);
    ASSERT_TRUE(r.error.empty()) << r.error;
    for (const PerfDelta &d : r.deltas)
        EXPECT_FALSE(d.missing) << d.path;
}

TEST(PerfTrend, IdenticalDocumentsPass)
{
    const PerfTrendResult r =
        comparePerf(baseDoc(), baseDoc(), 0.35);
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_FALSE(r.regressed);
    for (const PerfDelta &d : r.deltas) {
        EXPECT_FALSE(d.regressed) << d.path;
        EXPECT_DOUBLE_EQ(d.changeFrac, 0.0) << d.path;
    }
}

TEST(PerfTrend, ThroughputDropBeyondThresholdRegresses)
{
    // Injected synthetic regression: kernel throughput halved. This
    // is the scenario the CI gate exists for, so the exit signal
    // (result.regressed -> nonzero exit in bench/perf_trend) must
    // fire.
    const PerfTrendResult r =
        comparePerf(baseDoc(), doc(4.0e6, 0.0, 5.0, 5.5), 0.35);
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.regressed);
    bool found = false;
    for (const PerfDelta &d : r.deltas) {
        if (d.path == "kernel.fifo_64k.events_per_sec") {
            EXPECT_TRUE(d.regressed);
            EXPECT_TRUE(d.gated);
            EXPECT_LT(d.changeFrac, -0.35);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(PerfTrend, DropWithinThresholdPasses)
{
    // 20% down on a 35% threshold: noise, not a regression.
    const PerfTrendResult r =
        comparePerf(baseDoc(), doc(6.4e6, 0.0, 5.0, 5.5), 0.35);
    ASSERT_TRUE(r.error.empty());
    EXPECT_FALSE(r.regressed);
}

TEST(PerfTrend, ImprovementNeverRegresses)
{
    const PerfTrendResult r =
        comparePerf(baseDoc(), doc(1.6e7, 0.0, 2.0, 2.0), 0.35);
    ASSERT_TRUE(r.error.empty());
    EXPECT_FALSE(r.regressed);
}

TEST(PerfTrend, WallTimeGrowthRegresses)
{
    // Lower-is-better direction: fig14 wall time tripled.
    const PerfTrendResult r =
        comparePerf(baseDoc(), doc(8.0e6, 0.0, 15.0, 5.5), 0.35);
    ASSERT_TRUE(r.error.empty());
    EXPECT_TRUE(r.regressed);
}

TEST(PerfTrend, AllocSlackAbsorbsNearZeroJitter)
{
    // allocs/event drifting 0 -> 0.2 stays inside the 0.25 absolute
    // slack (a relative test against a 0 baseline would divide by
    // zero or always fire)...
    const PerfTrendResult small =
        comparePerf(baseDoc(), doc(8.0e6, 0.2, 5.0, 5.5), 0.35);
    ASSERT_TRUE(small.error.empty());
    EXPECT_FALSE(small.regressed);
    // ...but a real allocation leak (1 alloc/event) fires.
    const PerfTrendResult leak =
        comparePerf(baseDoc(), doc(8.0e6, 1.0, 5.0, 5.5), 0.35);
    ASSERT_TRUE(leak.error.empty());
    EXPECT_TRUE(leak.regressed);
}

TEST(PerfTrend, InformationalMetricsNeverGate)
{
    // p99 of the tiny fig14 run is load- and allocator-sensitive:
    // it is reported but must not flip the gate on its own.
    const PerfTrendResult r =
        comparePerf(baseDoc(), doc(8.0e6, 0.0, 5.0, 50.0), 0.35);
    ASSERT_TRUE(r.error.empty());
    EXPECT_FALSE(r.regressed);
    bool flagged = false;
    for (const PerfDelta &d : r.deltas) {
        if (d.path == "fig14_small.p99_ms") {
            EXPECT_TRUE(d.regressed);
            EXPECT_FALSE(d.gated);
            flagged = true;
        }
    }
    EXPECT_TRUE(flagged);
}

TEST(PerfTrend, MalformedAndMismatchedInputsError)
{
    EXPECT_FALSE(
        comparePerf("{bad", baseDoc(), 0.35).error.empty());
    EXPECT_FALSE(
        comparePerf(baseDoc(), "nope", 0.35).error.empty());
    EXPECT_FALSE(comparePerf(baseDoc(), "{\"schema\":\"other\"}",
                             0.35)
                     .error.empty());
    // Errors must not read as a pass with zero deltas.
    const PerfTrendResult r = comparePerf("{bad", baseDoc(), 0.35);
    EXPECT_TRUE(r.deltas.empty());
}

TEST(PerfTrend, MissingMetricIsReportedNotGated)
{
    const PerfTrendResult r = comparePerf(
        baseDoc(),
        "{\"schema\":\"umany-perf-smoke-v1\",\"kernel\":{}}", 0.35);
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_FALSE(r.regressed);
    for (const PerfDelta &d : r.deltas)
        EXPECT_TRUE(d.missing) << d.path;
}

TEST(PerfTrend, TableMarksRegressions)
{
    const PerfTrendResult r =
        comparePerf(baseDoc(), doc(4.0e6, 0.0, 5.0, 5.5), 0.35);
    const std::string table = perfTrendTable(r);
    EXPECT_NE(table.find("REGRESSED"), std::string::npos) << table;
    EXPECT_NE(table.find("kernel.fifo_64k.events_per_sec"),
              std::string::npos);
}

} // namespace
} // namespace umany
