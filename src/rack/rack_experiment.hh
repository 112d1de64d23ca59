/**
 * @file
 * Rack experiments: the configuration of a run over N packages
 * behind the front-end load balancer. The runner itself lives in
 * driver/experiment.cc; runExperiment() is this runner on a rack of
 * one package, where the rack layer is inert and adds nothing to
 * any output.
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
};

/**
 * Run one rack experiment to completion. The load generator runs
 * one arrival stream per package.
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

} // namespace umany

#endif // UMANY_RACK_RACK_EXPERIMENT_HH
