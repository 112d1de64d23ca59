/**
 * @file
 * The benchmark's three workloads and the simulated outputs each one
 * produces. Every workload runs through one of the library's public
 * entry points (runExperiment, findMaxQosThroughput,
 * runRackExperiment) on one thread; the benchmark times the call from
 * outside and checks what it returns.
 */

#ifndef UMANY_PERFBENCH_WORKLOADS_HH
#define UMANY_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/experiment.hh"
#include "driver/qos.hh"
#include "rack/rack_experiment.hh"

namespace pb
{

enum class WorkloadId : std::uint8_t
{
    Um15k,       //!< uManycore, 10 servers, 15K RPS/server.
    ScQos,       //!< Fig 18 QoS search on ServerClass.
    Rack4Attrib, //!< 4 uManycore packages, po2c LB, attribution on.
};

/** How much simulated time a workload covers. */
enum class Window : std::uint8_t
{
    /** The paper run's windows, 1 to 4 host seconds a call: the
     *  reference call whose outputs are the paper's results. */
    Paper,
    /** A slice of the paper run, a few tenths of a host second a
     *  call: the timed and traced calls (see README.md, "Noise"). */
    Slice,
};

/** One workload's fully resolved configuration. */
struct WorkloadSpec
{
    WorkloadId id = WorkloadId::Um15k;
    std::string name;
    Window window = Window::Paper;
    /** runExperiment config (um_15k) or QoS-search base (sc_qos). */
    umany::ExperimentConfig exp;
    umany::QosSearchConfig qos;
    umany::RackExperimentConfig rack;
};

/** The seed of the paper's headline runs (and the default one). */
constexpr std::uint64_t kHeadlineSeed = 0x5eed;

/** The workload names the benchmark accepts, in a fixed order. */
const std::vector<std::string> &workloadNames();

/**
 * Resolve @p name at @p seed; fatal() on an unknown name. At
 * kHeadlineSeed and Window::Paper the configuration is the paper
 * run's exactly.
 */
WorkloadSpec makeSpec(const std::string &name, std::uint64_t seed,
                      Window window);

/** The resolved configuration as a JSON object (provenance). */
std::string specJson(const WorkloadSpec &spec);

/**
 * Simulated outputs of one call. Two calls of the same commit, seed
 * and workload must produce equal values and digests; violations are
 * broken conservation laws and ledger mismatches.
 */
struct Outputs
{
    std::vector<std::pair<std::string, double>> values;
    /** FNV-1a over the StatsDump (sc_qos: over the thresholds). */
    std::string digest;
    std::vector<std::string> violations;
};

/** One timed call of a workload and what it returned. */
struct Call
{
    /** Host seconds: catalog build plus the public call. */
    double wallS = 0.0;
    Outputs out;
    umany::StatsDump stats;       //!< Not filled by sc_qos.
    umany::AttribResult attrib;   //!< Filled when attribution ran.
    umany::QosResult qos;         //!< sc_qos only.
};

/** Whether the workload's own timed call runs the ledger. */
bool attribByDefault(const WorkloadSpec &spec);

/**
 * Host seconds to build the catalog and the workload's ClusterSim
 * or RackSim through their public constructors.
 */
double setupOnce(const WorkloadSpec &spec);

/**
 * The workload's public call, catalog build included.
 * @param obs Observability for the call (the timed runs pass none).
 * @param attrib Whether to request the attribution ledger.
 */
Call runWorkload(const WorkloadSpec &spec, const umany::ObsConfig &obs,
                 bool attrib);

/**
 * sc_qos only: one runExperiment at the answer the search returned,
 * under its thresholds, checked for conservation. The search itself
 * returns no statistics to check.
 */
Outputs checkQosAnswer(const WorkloadSpec &spec,
                       const umany::QosResult &answer);

/** Per-probe hook of replayQosSearch: the probe's index and what its
 *  runExperiment returned. */
using ProbeFn = std::function<void(std::size_t, const umany::RunMetrics &,
                                   const umany::StatsDump &)>;

/**
 * The contention-free oracle for the workload's machine and cluster
 * (the rack's per-package base for rack4_attrib).
 */
std::map<umany::ServiceId, umany::Tick>
contentionFree(const WorkloadSpec &spec);

/**
 * sc_qos only: the same binary search findMaxQosThroughput runs, from
 * the QoS thresholds over the oracle's @p averages, with every probe
 * made through runExperiment so it can be profiled and checked.
 * @param probe_obs Observability of probe i.
 * @return The search's answer; it must equal the untraced call's.
 */
umany::QosResult replayQosSearch(
    const WorkloadSpec &spec,
    const std::map<umany::ServiceId, umany::Tick> &averages,
    const std::function<umany::ObsConfig(std::size_t)> &probe_obs,
    const ProbeFn &on_probe);

/** Outputs of one runExperiment/runRackExperiment call. */
Outputs outputsOf(const umany::RunMetrics &m,
                  const umany::StatsDump &stats);

/** The QoS search's outputs: answer, violation rate, thresholds. */
Outputs qosOutputs(const umany::QosResult &r);

/** Sum of every statistic named @p leaf or ending in "." + @p leaf. */
double sumStat(const umany::StatsDump &stats, const std::string &leaf);

} // namespace pb

#endif // UMANY_PERFBENCH_WORKLOADS_HH
