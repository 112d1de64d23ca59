/**
 * @file
 * Tests for the simulator self-profiler: the event-source taxonomy,
 * per-source event/host-time accounting, the emitted JSON report,
 * and the overhead/neutrality guarantees of attaching a profiler to
 * the kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <set>
#include <string>
#include <vector>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "obs/json.hh"
#include "obs/simprof.hh"
#include "sim/event_queue.hh"
#include "workload/app_graph.hh"

namespace umany
{
namespace
{

TEST(EvTaxonomy, NamesAreUniqueAndDefined)
{
    std::set<std::string> names;
    for (std::size_t s = 0; s < kNumEvSrcs; ++s) {
        const std::string n = evSrcName(static_cast<EvSrc>(s));
        EXPECT_NE(n, "invalid") << "source " << s;
        EXPECT_FALSE(n.empty());
        names.insert(n);
    }
    EXPECT_EQ(names.size(), kNumEvSrcs);
}

TEST(EvTaxonomy, TagsFitInTheHeapNodePadding)
{
    // The whole design rests on tags being free to carry: EvTag must
    // stay within the padding of the 24-byte heap node.
    EXPECT_LE(sizeof(EvTag), 4u);
}

TEST(SimProfiler, CountsEventsBySourceTag)
{
    EventQueue eq;
    SimProfiler prof(4); // Small batch so partial batches flush too.
    eq.setProfiler(&prof);

    int ran = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, EvTag{EvSrc::LoadGen}, [&ran]() { ++ran; });
    for (int i = 0; i < 6; ++i) {
        eq.schedule(100 + i, EvTag{EvSrc::CoreRun},
                    [&ran]() { ++ran; });
    }
    for (int i = 0; i < 3; ++i)
        eq.schedule(200 + i, [&ran]() { ++ran; }); // Untagged.
    eq.run();
    eq.setProfiler(nullptr);
    prof.finalize();

    EXPECT_EQ(ran, 19);
    EXPECT_EQ(prof.totalEvents(), 19u);
    EXPECT_EQ(prof.events(EvSrc::LoadGen), 10u);
    EXPECT_EQ(prof.events(EvSrc::CoreRun), 6u);
    EXPECT_EQ(prof.events(EvSrc::Other), 3u);
    EXPECT_EQ(prof.events(EvSrc::Fault), 0u);
}

TEST(SimProfiler, HostTimeSharesSumToTotal)
{
    EventQueue eq;
    SimProfiler prof(8);
    eq.setProfiler(&prof);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) {
        eq.schedule(i, EvTag{i % 2 ? EvSrc::CoreRun : EvSrc::RpcNic},
                    [&sink]() {
                        for (int k = 0; k < 50; ++k)
                            sink = sink + k;
                    });
    }
    eq.run();
    eq.setProfiler(nullptr);
    prof.finalize();

    ASSERT_GT(prof.totalHostNs(), 0.0);
    double sum = 0.0;
    for (std::size_t s = 0; s < kNumEvSrcs; ++s)
        sum += prof.hostNs(static_cast<EvSrc>(s));
    // Every batch's delta is fully distributed, so the shares sum
    // exactly (up to floating-point accumulation) to the total.
    EXPECT_NEAR(sum / prof.totalHostNs(), 1.0, 1e-9);
}

TEST(SimProfiler, TimelineStaysBoundedOnLongRuns)
{
    EventQueue eq;
    SimProfiler prof(1); // One flush per event: worst case.
    eq.setProfiler(&prof);
    struct Chain
    {
        EventQueue &eq;
        int left;
        void
        operator()()
        {
            if (--left > 0)
                eq.scheduleAfter(10, EvTag{EvSrc::LoadGen},
                                 Chain{eq, left});
        }
    };
    eq.schedule(0, EvTag{EvSrc::LoadGen},
                Chain{eq, 10 * static_cast<int>(
                              SimProfiler::maxTimelinePoints)});
    eq.run();
    eq.setProfiler(nullptr);
    prof.finalize();

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(prof.toJson(), v, &err)) << err;
    const JsonValue *tl = v.find("timeline");
    ASSERT_NE(tl, nullptr);
    EXPECT_LE(tl->find("sim_us")->items.size(),
              SimProfiler::maxTimelinePoints);
    EXPECT_GT(tl->find("sim_us")->items.size(), 0u);
    EXPECT_EQ(tl->find("sim_us")->items.size(),
              tl->find("events")->items.size());
}

/** A small two-cluster machine that still exercises the full stack. */
MachineParams
smallMachine()
{
    MachineParams p = uManycoreParams();
    p.numCores = 64;
    p.coresPerVillage = 8;
    p.villagesPerCluster = 4;
    return p;
}

TEST(SimProfilerIntegration, Fig14SmallProfileReportValidates)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg;
    cfg.machine = uManycoreParams(); // 1024 cores, 32 clusters.
    cfg.cluster.numServers = 2;
    cfg.rpsPerServer = 5000.0;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(20.0);
    cfg.seed = 0x5eed;
    cfg.obs.simProfile = "test_simprof_profile.json";

    StatsDump stats;
    runExperiment(cat, cfg, &stats);

    std::FILE *f = std::fopen(cfg.obs.simProfile.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(cfg.obs.simProfile.c_str());

    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(text, v, &err)) << err;
    EXPECT_EQ(v.find("schema")->str, "umany.sim_profile.v2");

    const JsonValue *events = v.find("events");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->find("total")->number, 0.0);
    // Attached before the cluster is built, the profiler sees every
    // event the kernel dispatches.
    EXPECT_EQ(events->find("total")->number, stats.value("sim.events"));
    double share_sum = 0.0;
    for (const JsonValue &src : events->find("per_source")->items) {
        share_sum += src.find("host_share")->number;
        // Every event the run schedules carries a source tag.
        EXPECT_NE(src.find("source")->str, "other");
    }
    EXPECT_NEAR(share_sum, 1.0, 1e-6);

    const JsonValue *queue = v.find("queue");
    ASSERT_NE(queue, nullptr);
    EXPECT_GT(queue->find("occupancy")->find("count")->number, 0.0);
    EXPECT_GT(queue->find("horizon_ticks")->find("count")->number,
              0.0);
}

TEST(SimProfilerIntegration, ProfilingDoesNotPerturbResults)
{
    // The profiler observes and never schedules: metrics from a
    // profiled run must be bit-identical to an unprofiled one.
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg;
    cfg.machine = smallMachine();
    cfg.cluster.numServers = 2;
    cfg.rpsPerServer = 2000.0;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(20.0);
    cfg.seed = 99;

    const RunMetrics plain = runExperiment(cat, cfg);
    cfg.obs.simProfile = "test_simprof_neutrality.json";
    const RunMetrics profiled = runExperiment(cat, cfg);
    std::remove(cfg.obs.simProfile.c_str());

    EXPECT_EQ(plain.throughputRps, profiled.throughputRps);
    EXPECT_EQ(plain.overall.p99Ms, profiled.overall.p99Ms);
    EXPECT_EQ(plain.overall.avgMs, profiled.overall.avgMs);
}

TEST(SimProfilerIntegration, OverheadStaysSmall)
{
    // Pin the end-to-end cost of --sim-profile; the 25% bound leaves
    // room for loaded CI runners. micro_event_queue reports the
    // pure-kernel overhead.
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg;
    // A window long enough that per-event cost dominates the fixed
    // report-emission cost (JSON + file write), which is what the
    // budget is about — emission is once per run.
    cfg.machine = smallMachine();
    cfg.cluster.numServers = 2;
    cfg.rpsPerServer = 4000.0;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(200.0);
    cfg.seed = 7;
    ExperimentConfig on = cfg;
    on.obs.simProfile = "test_simprof_overhead.json";

    // CPU time of this thread, so time spent descheduled does not
    // count against either side.
    const auto cpuSec = [&](const ExperimentConfig &c) {
        timespec t0{}, t1{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
        runExperiment(cat, c);
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
        return static_cast<double>(t1.tv_sec - t0.tv_sec) +
               static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-9;
    };

    // A shared host runs in slow and fast stretches. Back-to-back
    // pairs, alternating which side goes first, put both sides of a
    // ratio in the same stretch; the median ratio ignores the pairs
    // a stretch boundary split.
    runExperiment(cat, cfg); // Warm-up.
    constexpr int kPairs = 7;
    std::vector<double> ratios;
    for (int i = 0; i < kPairs; ++i) {
        double off = 0.0;
        double with_prof = 0.0;
        if (i % 2 == 0) {
            off = cpuSec(cfg);
            with_prof = cpuSec(on);
        } else {
            with_prof = cpuSec(on);
            off = cpuSec(cfg);
        }
        ratios.push_back(with_prof / off);
    }
    std::remove(on.obs.simProfile.c_str());
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[kPairs / 2];

    EXPECT_LT(median, 1.25)
        << "sim-profile overhead " << (median - 1.0) * 100.0
        << "% (median of " << kPairs << " pairs)";
}

} // namespace
} // namespace umany
