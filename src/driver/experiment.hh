/**
 * @file
 * Experiment runner: builds the simulated machines, applies load,
 * trims warmup, drains, and collects metrics. There is one runner,
 * so methodology is identical across figures: runExperiment() runs
 * a rack of one package, runRackExperiment() (rack/rack_experiment.hh)
 * a rack of N, and the contention-free oracle and the QoS search
 * (driver/qos.hh) go through the same code.
 */

#ifndef UMANY_DRIVER_EXPERIMENT_HH
#define UMANY_DRIVER_EXPERIMENT_HH

#include <map>
#include <string>

#include "arch/cluster_sim.hh"
#include "driver/metrics.hh"
#include "fault/fault_plan.hh"
#include "obs/tail_profiler.hh"
#include "obs/trace.hh"
#include "stats/stats_dump.hh"
#include "workload/loadgen.hh"

namespace umany
{

class Config;

/** Observability options of one run (all off by default). */
struct ObsConfig
{
    /** Chrome trace_event output path ("" disables tracing). */
    std::string traceOut;
    /**
     * Machine-readable run artifact path ("" disables): one JSON
     * document holding the RunMetrics report, the full stats dump,
     * and (when sampling is on) the sampler time series.
     */
    std::string statsJson;
    /** Sampler period in ticks (0 disables the sampler). */
    Tick sampleInterval = 0;
    /** TraceSink capacity in events. */
    std::size_t traceCapacity = TraceSink::defaultCapacity;
    /**
     * Comma-separated track selection for tracing ("" records all
     * tracks): any of village, core, swq, dispatcher, nic, icn/net,
     * counters, client.
     */
    std::string traceFilter;
    /** Enable the latency-attribution ledger + tail profiler. */
    bool attrib = false;
    /** Tail-profile JSON artifact path (implies attrib). */
    std::string tailProfile;
    /** OpenMetrics text artifact path ("" disables). */
    std::string metricsOut;
    /** Slowest-root captures retained per endpoint. */
    std::size_t tailTopK = 32;
    /**
     * Host-side simulator self-profile JSON path ("" disables).
     * When set, every event executed by the kernel is attributed to
     * its source subsystem and ICN cluster, and the run also prints
     * a human-readable profile table to stderr.
     */
    std::string simProfile;
    /**
     * Progress heartbeat period in host seconds (0 disables). The
     * heartbeat goes to stderr so machine-read stdout stays clean.
     */
    double progressSec = 0.0;
    /** Print a run-health summary block to stderr after the run. */
    bool runSummary = false;
};

/**
 * Parse the observability flags shared by every bench and example:
 * `trace_out=`, `stats_json=`, `sample_interval_us=`,
 * `trace_capacity=`, `trace_filter=`, `attrib=`, `tail_profile=`,
 * `metrics_out=`, `tail_topk=`, `sim_profile=`, `progress=` (seconds,
 * or on/yes/true for 5 s) and `run_summary=`. Unset keys keep the
 * ObsConfig defaults; a negative interval or progress period and a
 * tail_topk below 1 are fatal.
 */
ObsConfig obsFromConfig(const Config &cfg);

/** Attribution results of one run (filled when enabled). */
struct AttribResult
{
    bool enabled = false;
    /** Finished service requests folded into the aggregates. */
    std::uint64_t requests = 0;
    /** Completed roots ingested by the tail profiler. */
    std::uint64_t roots = 0;
    /** Roots whose ledger missed the observed latency by > 1 tick. */
    std::uint64_t ledgerMismatches = 0;
    /** Mean per-request ledger charge, by component (us). */
    std::array<double, kNumAttribComps> perRequestMeanUs{};
    /** §3.3 analytic means over the same request population (us). */
    double analyticQueuedUs = 0.0;
    double analyticBlockedUs = 0.0;
    double analyticRunningUs = 0.0;
    TailProfiler profiler;
};

/** One experiment's configuration. */
struct ExperimentConfig
{
    MachineParams machine;
    ClusterSimParams cluster;
    /** Offered load per server, requests per second. */
    double rpsPerServer = 5000.0;
    ArrivalKind arrivals = ArrivalKind::Poisson;
    Tick warmup = fromMs(40.0);
    Tick measure = fromMs(400.0);
    /** Hard cap on post-load drain (bounds saturated runs). */
    Tick drainLimit = fromSec(3.0);
    std::uint64_t seed = 0xfeedbeefull;
    /**
     * Number of event kernels. 1, the serial kernel, is the only
     * accepted value: runExperiment() and runRackExperiment() fail
     * on any other. The field stays only because the benchmark
     * (perfbench/workloads.cc) assigns it and records it in its
     * provenance.
     */
    std::uint32_t shards = 1;
    /** Optional per-endpoint QoS thresholds (§6.5). */
    std::map<ServiceId, Tick> qosThresholds;
    /** Scheduled fault events (empty = fully healthy run). */
    FaultPlan faults;
    /** Tracing / sampling / artifact output. */
    ObsConfig obs;
};

/**
 * Run one experiment to completion and collect metrics: the rack
 * runner on a rack of one package.
 * @param stats_out When non-null, also filled with the full
 *        gem5-style statistics dump of the finished simulation.
 * @param attrib_out When non-null and attribution is on (via
 *        cfg.obs.attrib or a tail-profile path), filled with the
 *        run's latency-attribution aggregates and tail profiler.
 */
RunMetrics runExperiment(const ServiceCatalog &catalog,
                         const ExperimentConfig &cfg,
                         StatsDump *stats_out = nullptr,
                         AttribResult *attrib_out = nullptr);

/**
 * One probe of the QoS search (driver/qos.hh): runExperiment() that
 * stops as soon as the run is certain to fail the QoS bound, once
 * (QoS violations + rejections) / (arrivals the whole trace will
 * make) exceeds @p max_violation_rate. Both counts only grow and
 * the observed roots are some of those arrivals, so a stopped run's
 * own qosViolationRate() exceeds the bound too, and a run that
 * passes is never stopped: its metrics equal runExperiment()'s. A
 * stopped run's metrics cover only the simulated time it ran.
 */
RunMetrics runQosProbe(const ServiceCatalog &catalog,
                       const ExperimentConfig &cfg,
                       double max_violation_rate);

/**
 * Contention-free per-endpoint average execution time: a low-load
 * Poisson run with ICN contention disabled, on the base config's
 * machine and cluster. The base config's load, faults, QoS
 * thresholds and observability are ignored. Used to derive the §6.5
 * QoS thresholds (5x this average).
 */
std::map<ServiceId, Tick>
contentionFreeAverages(const ServiceCatalog &catalog,
                       const ExperimentConfig &base);

} // namespace umany

#endif // UMANY_DRIVER_EXPERIMENT_HH
