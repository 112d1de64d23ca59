/**
 * @file
 * Shared helpers for the figure-reproduction benches: uniform
 * argument handling (key=value overrides) and evaluation-run
 * wrappers so every figure uses the same methodology (§5).
 */

#ifndef UMANY_BENCH_COMMON_HH
#define UMANY_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/sweep.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "stats/table.hh"
#include "workload/app_graph.hh"

namespace umany::bench
{

/** Read the shared observability flags out of a parsed Config. */
inline ObsConfig
obsFromConfig(const Config &cfg)
{
    ObsConfig obs;
    obs.traceOut = cfg.getString("trace_out", "");
    obs.statsJson = cfg.getString("stats_json", "");
    const double us = cfg.getDouble("sample_interval_us", 0.0);
    if (us < 0.0)
        fatal("sample_interval_us must be >= 0 (got %g)", us);
    obs.sampleInterval = fromUs(us);
    obs.traceCapacity = static_cast<std::size_t>(cfg.getInt(
        "trace_capacity",
        static_cast<std::int64_t>(TraceSink::defaultCapacity)));
    obs.traceFilter = cfg.getString("trace_filter", "");
    obs.attrib = cfg.getBool("attrib", false);
    obs.tailProfile = cfg.getString("tail_profile", "");
    obs.metricsOut = cfg.getString("metrics_out", "");
    const std::int64_t top_k = cfg.getInt("tail_topk", 32);
    if (top_k <= 0)
        fatal("tail_topk must be positive (got %lld)",
              static_cast<long long>(top_k));
    obs.tailTopK = static_cast<std::size_t>(top_k);
    obs.simProfile = cfg.getString("sim_profile", "");
    // --progress=SEC sets the heartbeat period; the boolean
    // spellings (--progress=on) pick a 5-second default.
    const std::string prog = cfg.getString("progress", "");
    if (prog == "true" || prog == "yes" || prog == "on") {
        obs.progressSec = 5.0;
    } else if (!prog.empty() && prog != "false" && prog != "no" &&
               prog != "off") {
        obs.progressSec = cfg.getDouble("progress");
        if (obs.progressSec < 0.0)
            fatal("progress must be >= 0 seconds (got %g)",
                  obs.progressSec);
    }
    obs.runSummary = cfg.getBool("run_summary", false);
    return obs;
}

/** Common run-shape options every bench accepts on argv. */
struct BenchArgs
{
    Config cfg;
    std::uint32_t servers = 10;
    Tick warmup = fromMs(30.0);
    Tick measure = fromMs(450.0);
    std::uint64_t seed = 0x5eedull;
    /**
     * Observability (all off by default):
     *   --trace-out=PATH         Chrome trace of the run
     *   --stats-json=PATH        machine-readable run artifact
     *   --sample-interval-us=N   sampler period
     *   --trace-capacity=N       TraceSink size in events
     *   --trace-filter=T[,..]    record only these tracks (village,
     *                            core, swq, dispatcher, nic, icn,
     *                            counters, client, lb, fabric)
     *   --attrib=1               per-request latency attribution
     *   --tail-profile=PATH      tail-profile JSON (implies attrib)
     *   --metrics-out=PATH       OpenMetrics text artifact
     *   --tail-topk=N            slow-root captures per endpoint
     *   --sim-profile=PATH       simulator self-profile JSON (plus
     *                            a readable table on stderr)
     *   --progress=SEC           heartbeat on stderr every SEC host
     *                            seconds (=on picks 5 s; 0 = off)
     *   --run-summary=1          run-health block on stderr
     */
    ObsConfig obs;
    /**
     * Worker threads for independent sweep points:
     *   --jobs=N   (default: hardware concurrency, clamped to
     *              [1, SweepRunner::maxJobs])
     * Report output is identical for every N; see EXPERIMENTS.md.
     */
    unsigned jobs = 0;
    /**
     * NIC dispatch / intra-machine scheduling policy:
     *   --dispatch=rr|po2c|jsqd|steal|slo   (default rr: today's
     *                        round-robin, byte-identical goldens)
     *   --dispatch-probes=D        JSQ(d) probe count (jsqd only;
     *                              po2c pins d=2)
     *   --dispatch-probe-cycles=C  NIC cost per depth probe
     *   --steal-attempts=N         sibling RQs probed per idle pass
     *   --steal-cycles=C           cost per steal probe, hit or miss
     *   --slo-budget-us=B          per-root latency budget (slo)
     *   --slo-slice-us=S           preemption slice (slo; 0 = off)
     */
    DispatchPolicyParams dispatch;

    void
    parse(int argc, char **argv)
    {
        cfg.parseArgs(argc, argv);
        servers = static_cast<std::uint32_t>(
            cfg.getInt("servers", servers));
        warmup = fromMs(cfg.getDouble("warmup_ms", toMs(warmup)));
        measure = fromMs(cfg.getDouble("measure_ms", toMs(measure)));
        seed = static_cast<std::uint64_t>(
            cfg.getInt("seed", static_cast<std::int64_t>(seed)));
        obs = obsFromConfig(cfg);
        jobs = SweepRunner::clampJobs(cfg.getInt("jobs", 0));
        dispatch = dispatchParamsFromConfig(cfg, dispatch);
    }
};

/**
 * Give a per-run artifact path a per-point suffix ("out.json" ->
 * "out.pt3.json") so the points of one sweep do not overwrite each
 * other's files. Applied whenever a sweep has more than one point —
 * independent of --jobs, so filenames are deterministic too.
 */
inline std::string
pointPath(const std::string &path, std::size_t point,
          std::size_t npoints)
{
    if (path.empty() || npoints <= 1)
        return path;
    const std::string tag = ".pt" + std::to_string(point);
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + tag;
    }
    return path.substr(0, dot) + tag + path.substr(dot);
}

/** The ObsConfig for one point of an @p npoints -point sweep. */
inline ObsConfig
obsForPoint(const ObsConfig &obs, std::size_t point,
            std::size_t npoints)
{
    ObsConfig o = obs;
    o.traceOut = pointPath(obs.traceOut, point, npoints);
    o.statsJson = pointPath(obs.statsJson, point, npoints);
    o.tailProfile = pointPath(obs.tailProfile, point, npoints);
    o.metricsOut = pointPath(obs.metricsOut, point, npoints);
    o.simProfile = pointPath(obs.simProfile, point, npoints);
    return o;
}

/** Build an evaluation-config for one machine at one load. */
inline ExperimentConfig
evalConfig(const MachineParams &machine, double rps_per_server,
           const BenchArgs &args, ArrivalKind arrivals)
{
    ExperimentConfig cfg;
    cfg.machine = machine;
    cfg.cluster.numServers = args.servers;
    cfg.rpsPerServer = rps_per_server;
    cfg.arrivals = arrivals;
    cfg.warmup = args.warmup;
    cfg.measure = args.measure;
    cfg.seed = args.seed;
    cfg.obs = args.obs;
    cfg.machine.dispatch = args.dispatch;
    return cfg;
}

/** Print a banner shared by all benches. */
inline void
banner(const char *fig, const char *what)
{
    std::printf("############################################\n");
    std::printf("# %s: %s\n", fig, what);
    std::printf("############################################\n\n");
}

} // namespace umany::bench

#endif // UMANY_BENCH_COMMON_HH
