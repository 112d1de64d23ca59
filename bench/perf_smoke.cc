/**
 * @file
 * Perf smoke: a fast, fixed-shape performance probe of the simulator
 * itself, writing a machine-readable BENCH_perf.json so the perf
 * trajectory is tracked run over run (CI uploads it as an artifact).
 *
 * Three sections:
 *  - kernel: raw event-queue throughput (events/sec) and
 *    allocations/event for the representative scheduling patterns,
 *  - fig14_small: wall time of a fixed small fig14-style experiment
 *    (social network on uManycore, 2 servers, 50 ms window),
 *  - sweep: the same point set run through SweepRunner with jobs=1
 *    and jobs=hardware, as a parallel-efficiency probe.
 *
 * Usage: perf_smoke [--out=BENCH_perf.json] [--jobs=N]
 * Schema documented in EXPERIMENTS.md ("BENCH_perf.json schema").
 */

#include "bench/alloc_count.hh"
#include "bench/common.hh"

#include <chrono>

#include "obs/json.hh"

using namespace umany;
using namespace umany::bench;

namespace
{

using clock_type = std::chrono::steady_clock;

double
secondsSince(clock_type::time_point t0)
{
    return std::chrono::duration<double>(clock_type::now() - t0)
        .count();
}

struct KernelResult
{
    double eventsPerSec = 0.0;
    double allocsPerEvent = 0.0;
};

/** Time @p pattern (schedule+drain on a fresh queue) for >=0.2 s. */
template <typename Fn>
KernelResult
kernelSection(Fn &&pattern)
{
    {
        EventQueue warm;
        pattern(warm);
    }
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    double elapsed = 0.0;
    while (elapsed < 0.2) {
        EventQueue eq;
        const std::uint64_t a0 = allocsNow();
        const auto t0 = clock_type::now();
        pattern(eq);
        elapsed += secondsSince(t0);
        allocs += allocsNow() - a0;
        events += eq.dispatched();
    }
    KernelResult r;
    r.eventsPerSec = static_cast<double>(events) / elapsed;
    r.allocsPerEvent =
        static_cast<double>(allocs) / static_cast<double>(events);
    return r;
}

void
writeKernel(JsonWriter &w, const char *name, const KernelResult &r)
{
    w.key(name)
        .beginObject()
        .key("events_per_sec")
        .value(r.eventsPerSec)
        .key("allocs_per_event")
        .value(r.allocsPerEvent)
        .endObject();
}

/** The fixed fig14-style point: small but exercises the full stack. */
ExperimentConfig
smallFig14Config()
{
    ExperimentConfig cfg;
    cfg.machine = uManycoreParams();
    cfg.cluster.numServers = 2;
    cfg.rpsPerServer = 5000.0;
    cfg.arrivals = ArrivalKind::Bursty;
    cfg.warmup = fromMs(5.0);
    cfg.measure = fromMs(50.0);
    cfg.seed = 0x5eedull;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    setInformEnabled(false);
    const std::string out =
        args.cfg.getString("out", "BENCH_perf.json");

    banner("perf_smoke", "simulator performance probe");

    // --- Kernel section -------------------------------------------
    struct Payload
    {
        void *a;
        void *b;
        std::uint64_t x;
        std::uint64_t y;
    };
    static std::uint64_t sink = 0;
    const Payload payload{&sink, &sink, 1, 2};

    const KernelResult fifo = kernelSection([&](EventQueue &eq) {
        for (std::int64_t i = 0; i < 65536; ++i) {
            eq.schedule(static_cast<Tick>(i),
                        [payload]() { sink += payload.x; });
        }
        eq.run();
    });
    const KernelResult random = kernelSection([&](EventQueue &eq) {
        Rng rng(1);
        for (std::int64_t i = 0; i < 65536; ++i) {
            eq.schedule(rng.below(1000000),
                        [payload]() { sink += payload.y; });
        }
        eq.run();
    });
    const KernelResult chain = kernelSection([&](EventQueue &eq) {
        struct Chain
        {
            EventQueue &eq;
            std::int64_t left;
            void
            operator()()
            {
                if (--left > 0)
                    eq.scheduleAfter(10, Chain{eq, left});
            }
        };
        eq.schedule(0, Chain{eq, 100000});
        eq.run();
    });

    // --- fig14_small section --------------------------------------
    const ServiceCatalog catalog = buildSocialNetwork();
    const ExperimentConfig cfg = smallFig14Config();
    runExperiment(catalog, cfg); // warm-up run
    StatsDump stats;
    const auto f0 = clock_type::now();
    const RunMetrics m = runExperiment(catalog, cfg, &stats);
    const double figWall = secondsSince(f0);
    const double figEvents =
        stats.has("sim.events") ? stats.value("sim.events") : 0.0;

    // --- sweep section --------------------------------------------
    // Four identical points; jobs=1 vs jobs=hardware measures the
    // runner's overhead/scaling, not workload variance.
    const std::size_t points = 4;
    const auto sweepOnce = [&](unsigned jobs) {
        SweepRunner runner(jobs);
        const auto t0 = clock_type::now();
        runner.forEach(points, [&](std::size_t) {
            runExperiment(catalog, cfg);
        });
        return secondsSince(t0);
    };
    const double sweep1 = sweepOnce(1);
    const unsigned hwJobs = SweepRunner::clampJobs(
        static_cast<std::int64_t>(args.jobs));
    const double sweepN = sweepOnce(hwJobs);

    // --- report ---------------------------------------------------
    Table t({"section", "metric", "value"});
    t.addRow({"kernel fifo64k", "events/sec",
              Table::num(fifo.eventsPerSec, 0)});
    t.addRow({"kernel random64k", "events/sec",
              Table::num(random.eventsPerSec, 0)});
    t.addRow({"kernel chain100k", "events/sec",
              Table::num(chain.eventsPerSec, 0)});
    t.addRow({"kernel fifo64k", "allocs/event",
              Table::num(fifo.allocsPerEvent, 3)});
    t.addRow({"fig14_small", "wall ms",
              Table::num(figWall * 1e3)});
    t.addRow({"fig14_small", "events/sec",
              Table::num(figEvents / figWall, 0)});
    t.addRow({"sweep x4", "wall ms (jobs=1)",
              Table::num(sweep1 * 1e3)});
    t.addRow({strprintf("sweep x4"),
              strprintf("wall ms (jobs=%u)", hwJobs),
              Table::num(sweepN * 1e3)});
    std::printf("%s\n", t.format().c_str());

    JsonWriter w;
    w.beginObject();
    w.key("schema").value("umany-perf-smoke-v1");
    w.key("host")
        .beginObject()
        .key("hardware_concurrency")
        .value(static_cast<std::uint64_t>(SweepRunner::hardwareJobs()))
        .endObject();
    w.key("kernel").beginObject();
    writeKernel(w, "fifo_64k", fifo);
    writeKernel(w, "random_64k", random);
    writeKernel(w, "chain_100k", chain);
    w.endObject();
    w.key("fig14_small")
        .beginObject()
        .key("wall_ms")
        .value(figWall * 1e3)
        .key("sim_events")
        .value(figEvents)
        .key("events_per_sec")
        .value(figWall > 0.0 ? figEvents / figWall : 0.0)
        .key("throughput_rps")
        .value(m.throughputRps)
        .key("p99_ms")
        .value(m.overall.p99Ms)
        .endObject();
    w.key("sweep")
        .beginObject()
        .key("points")
        .value(static_cast<std::uint64_t>(points))
        .key("jobs")
        .value(static_cast<std::uint64_t>(hwJobs))
        .key("wall_ms_jobs1")
        .value(sweep1 * 1e3)
        .key("wall_ms_jobsN")
        .value(sweepN * 1e3)
        .key("speedup")
        .value(sweepN > 0.0 ? sweep1 / sweepN : 0.0)
        .endObject();
    w.endObject();
    if (!writeTextFile(out, w.str()))
        return 1;
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
