/**
 * @file
 * Rack experiment runner: the rack-scale twin of
 * driver/experiment.hh. Builds a RackSim, applies rack-wide load
 * through the front-end load balancer, trims warmup, drains, and
 * collects rack-level metrics and statistics.
 *
 * With packages == 1 the rack layer is inert and every output
 * (metrics, stats, artifacts) is byte-identical to runExperiment()
 * on the same ExperimentConfig — tests pin this.
 */

#ifndef UMANY_RACK_RACK_EXPERIMENT_HH
#define UMANY_RACK_RACK_EXPERIMENT_HH

#include "driver/experiment.hh"
#include "rack/rack_sim.hh"

namespace umany
{

/** One rack experiment's configuration. */
struct RackExperimentConfig
{
    /**
     * The per-package experiment base: machine/cluster parameters,
     * offered load (rpsPerServer applies per server per package),
     * warmup/measure/drain windows, seed, QoS thresholds, faults
     * (FaultKind::PackageDown/Up target packages; everything else
     * forwards to every package), and observability. Tracing
     * namespaces each package's pids (pkgN.serverM) and adds
     * LB/fabric tracks; sampling uses the rack-scale sampler
     * (rack/rack_sampler.hh) when packages > 1.
     */
    ExperimentConfig base;
    /** Rack shape and LB policy. rack.cluster is overwritten from
     *  base.cluster — configure the packages through base. */
    RackSimParams rack;
    /**
     * Per-package machine overrides (heterogeneous racks): empty
     * uses base.machine everywhere; otherwise one entry per package.
     */
    std::vector<MachineParams> machines;
    /**
     * Independent MMPP/arrival streams in the load generator
     * (workload/loadgen.hh): 0 (default) scales the Alibaba
     * generator across the rack with one stream per package; any
     * other value is used verbatim (1 = the single-stream legacy
     * generator).
     */
    std::uint32_t arrivalStreams = 0;
};

/**
 * Run one rack experiment to completion.
 * @param stats_out When non-null, filled with the rack statistics
 *        dump (rack.* aggregates plus every package's stats under a
 *        "pkgN." prefix; with one package, exactly collectStats()).
 * @param attrib_out As runExperiment(); PkgHop charges appear in
 *        the component means.
 */
RunMetrics runRackExperiment(const ServiceCatalog &catalog,
                             const RackExperimentConfig &cfg,
                             StatsDump *stats_out = nullptr,
                             AttribResult *attrib_out = nullptr);

/**
 * Rack-level metrics: merged (client-observed) latency histograms,
 * counters summed across packages plus LB sheds, utilizations
 * averaged over every server in the rack with link utilization
 * weighted by fabric-link count. With one package, byte-identical
 * to collectMetrics() on that package.
 */
RunMetrics collectRackMetrics(RackSim &rack,
                              const ServiceCatalog &catalog,
                              Tick measure_time, double offered_rps);

/**
 * Rack statistics dump: rack.* LB/placement/fabric aggregates
 * followed by each package's full collectStats() tree under a
 * "pkgN." prefix. With one package, exactly collectStats().
 */
StatsDump collectRackStats(RackSim &rack);

} // namespace umany

#endif // UMANY_RACK_RACK_EXPERIMENT_HH
