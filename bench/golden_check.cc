/**
 * @file
 * Golden-figure regression (ISSUE 3 tentpole, part 3): re-runs
 * small, fast configurations of three representative figure
 * experiments (the Fig 3 queue sweep, the Fig 14 machine
 * comparison, and the Fig 18 QoS throughput search) and compares
 * the machine-readable report byte-for-byte against checked-in
 * goldens in bench/golden/.
 *
 * The simulator is deterministic for a fixed seed, so any byte
 * difference is a behavior change: either a bug, or an intentional
 * model change — in which case regenerate with --regen and review
 * the golden diff alongside the code (see EXPERIMENTS.md,
 * "Validation").
 *
 * Usage:
 *   golden_check [--golden-dir=DIR] [--case=NAME] [--regen]
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "driver/qos.hh"
#include "fault/fault_plan.hh"
#include "obs/json.hh"
#include "rack/rack_experiment.hh"
#include "workload/synthetic.hh"

using namespace umany;
using namespace umany::bench;

namespace
{

/** Shared run shape: small cluster, short windows, fixed seed. */
ExperimentConfig
smallConfig(const MachineParams &mp, double rps,
            std::uint32_t servers)
{
    ExperimentConfig cfg;
    cfg.machine = mp;
    cfg.cluster.numServers = servers;
    cfg.rpsPerServer = rps;
    cfg.arrivals = ArrivalKind::Bursty;
    cfg.warmup = fromMs(5.0);
    cfg.measure = fromMs(40.0);
    cfg.seed = 0x5eedull;
    return cfg;
}

/** One experiment rendered as a report block: metrics + stats. */
std::string
reportBlock(const std::string &label, const ServiceCatalog &catalog,
            const ExperimentConfig &cfg)
{
    StatsDump stats;
    const RunMetrics m = runExperiment(catalog, cfg, &stats);
    std::string out;
    out += "== " + label + " ==\n";
    out += metricsJson(m);
    out += "\n";
    out += stats.formatJson();
    out += "\n";
    return out;
}

/** Fig 3 at small scale: ScaleOut latency vs queue count. */
std::string
fig03Small()
{
    const ServiceCatalog catalog = buildSocialNetwork();
    std::string out = "# fig03-small: ScaleOut response time vs "
                      "queue count (1 server, 10K RPS)\n";
    for (const std::uint32_t q : {32u, 4u, 1u}) {
        MachineParams mp = scaleOutParams();
        mp.swQueueCount = q;
        mp.randomQueueAssignment = true;
        mp.icnContention = false;
        out += reportBlock("queues=" + std::to_string(q), catalog,
                           smallConfig(mp, 10000.0, 1));
    }
    return out;
}

/** Fig 14 at small scale: the three machines at one load. */
std::string
fig14Small()
{
    const ServiceCatalog catalog = buildSocialNetwork();
    std::string out = "# fig14-small: machine comparison "
                      "(2 servers, 5K RPS/server)\n";
    const std::vector<std::pair<std::string, MachineParams>>
        machines = {
            {"ServerClass", serverClassParams()},
            {"ScaleOut", scaleOutParams()},
            {"uManycore", uManycoreParams()},
        };
    for (const auto &[name, mp] : machines)
        out += reportBlock(name, catalog,
                           smallConfig(mp, 5000.0, 2));
    return out;
}

/** Fig 18 at small scale: a short QoS throughput search. */
std::string
fig18Small()
{
    const ServiceCatalog catalog = buildSocialNetwork();
    std::string out = "# fig18-small: QoS-bounded throughput "
                      "(uManycore, 1 server, 4 search steps)\n";
    ExperimentConfig base =
        smallConfig(uManycoreParams(), 0.0, 1);
    base.measure = fromMs(30.0);
    QosSearchConfig qcfg;
    qcfg.loRps = 2000.0;
    qcfg.hiRps = 64000.0;
    qcfg.iterations = 4;
    const QosResult r = findMaxQosThroughput(catalog, base, qcfg);
    out += strprintf("max_rps_per_server %.6g\n", r.maxRpsPerServer);
    out += strprintf("violation_rate_at_max %.6g\n",
                     r.violationRateAtMax);
    return out;
}

/**
 * Resilience at small scale: both fault-tolerant-routing contrast
 * machines with recovery on, healthy and with two links down per
 * server. Pins the fault layer end to end: seeded plan generation,
 * ECMP route-around vs fat-tree partitioning, NIC shedding, and the
 * client's timeout/retry/backoff accounting.
 */
std::string
figResilienceSmall()
{
    const ServiceCatalog catalog = buildSocialNetwork();
    std::string out = "# fig_resilience-small: 2 dead links/server "
                      "vs healthy (1 server, 5K RPS, recovery on)\n";
    const std::vector<std::pair<std::string, MachineParams>>
        machines = {
            {"uManycore", uManycoreParams()},
            {"ScaleOut", scaleOutParams()},
        };
    for (const auto &[name, mp] : machines) {
        for (const std::uint32_t failures : {0u, 2u}) {
            ExperimentConfig cfg = smallConfig(mp, 5000.0, 1);
            cfg.cluster.recovery.enabled = true;
            const std::unique_ptr<Topology> topo = makeTopology(mp);
            cfg.faults = randomLinkFailures(
                *topo, failures, cfg.warmup / 2, cfg.seed, 0);
            out += reportBlock(
                name + "/links=" + std::to_string(failures),
                catalog, cfg);
        }
    }
    return out;
}

/**
 * Attribution at small scale: the fan-out tree with and without an
 * injected bottleneck, attribution on. Pins the whole pipeline end
 * to end — ledger charges, critical-path extraction, and the tail
 * profiler's component ranking — since any change in a charge site
 * shifts the ranked ticks.
 */
std::string
figTailAttribSmall()
{
    std::string out = "# fig_tail_attrib-small: fan-out bottleneck "
                      "attribution (uManycore, 1 server, 4K RPS)\n";
    const std::vector<std::pair<std::string, FanoutParams>> cases =
        [] {
            FanoutParams base;
            FanoutParams slowed;
            slowed.slowLeaf = 2;
            slowed.slowFactor = 8.0;
            return std::vector<std::pair<std::string, FanoutParams>>{
                {"baseline", base}, {"slow-leaf", slowed}};
        }();
    for (const auto &[label, p] : cases) {
        const ServiceCatalog catalog = buildSyntheticFanout(p);
        ExperimentConfig cfg =
            smallConfig(uManycoreParams(), 4000.0, 1);
        cfg.obs.attrib = true;
        AttribResult a;
        const RunMetrics m = runExperiment(catalog, cfg, nullptr, &a);
        out += "== " + label + " ==\n";
        out += metricsJson(m);
        out += "\n";
        out += strprintf("roots %llu mismatches %llu\n",
                         static_cast<unsigned long long>(a.roots),
                         static_cast<unsigned long long>(
                             a.ledgerMismatches));
        for (const auto &[comp, ticks] : a.profiler.rankedTail()) {
            if (ticks == 0)
                continue;
            out += strprintf(
                "tail %s %llu\n", attribCompName(comp),
                static_cast<unsigned long long>(ticks));
        }
    }
    return out;
}

/**
 * Policy race at small scale: all four dispatch policies on the
 * uManycore machine at one load, attribution on. Pins the policy
 * mechanics end to end — probing NIC dispatch and hardware work
 * stealing — plus the gated cluster.sched.* counters and the
 * ledger's tail split under each policy.
 */
std::string
figPolicyRaceSmall()
{
    const ServiceCatalog catalog = buildSocialNetwork();
    std::string out = "# fig_policy_race-small: dispatch policies "
                      "(uManycore, 1 server, 8K RPS, attrib on)\n";
    for (const char *policy : {"rr", "po2c", "jsqd", "steal"}) {
        ExperimentConfig cfg =
            smallConfig(uManycoreParams(), 8000.0, 1);
        cfg.machine.dispatch.kind = parseDispatchKind(policy);
        cfg.obs.attrib = true;
        StatsDump stats;
        AttribResult a;
        const RunMetrics m =
            runExperiment(catalog, cfg, &stats, &a);
        out += "== " + std::string(policy) + " ==\n";
        out += metricsJson(m);
        out += "\n";
        out += stats.formatJson();
        out += "\n";
        out += strprintf("roots %llu mismatches %llu\n",
                         static_cast<unsigned long long>(a.roots),
                         static_cast<unsigned long long>(
                             a.ledgerMismatches));
        for (const auto &[comp, ticks] : a.profiler.rankedTail()) {
            if (ticks == 0)
                continue;
            out += strprintf(
                "tail %s %llu\n", attribCompName(comp),
                static_cast<unsigned long long>(ticks));
        }
    }
    return out;
}

/**
 * Rack scale at small scale (ISSUE 9 tentpole): a 3-package rack
 * under a one-package hard failure, with the LB's failover raced
 * on vs off, plus the rr-vs-po2c replica-policy contrast on the
 * healthy rack. Pins the whole rack layer end to end: placement,
 * the inter-package fabric's latency/occupancy math, LB replica
 * selection, package fault semantics, and the per-root PkgHop
 * ledger charges that keep client-observed latencies summing.
 */
std::string
figRackSmall()
{
    const ServiceCatalog catalog = buildSocialNetwork();
    std::string out = "# fig_rack-small: 3-package rack (1 "
                      "server/pkg, 5K RPS/server), 1 package "
                      "failed, failover on/off + policy contrast\n";
    const auto runCase = [&](const std::string &label,
                             DispatchKind policy,
                             std::uint32_t failed, bool failover) {
        RackExperimentConfig cfg;
        cfg.base = smallConfig(uManycoreParams(), 5000.0, 1);
        cfg.rack.packages = 3;
        cfg.rack.replica.kind = policy;
        cfg.rack.failover = failover;
        if (failed > 0) {
            cfg.base.cluster.recovery.enabled = true;
            cfg.base.faults = randomPackageFailures(
                cfg.rack.packages, failed,
                cfg.base.warmup + cfg.base.measure / 4,
                cfg.base.seed);
        }
        StatsDump stats;
        const RunMetrics m =
            runRackExperiment(catalog, cfg, &stats);
        std::string block = "== " + label + " ==\n";
        block += metricsJson(m);
        block += "\n";
        block += stats.formatJson();
        block += "\n";
        return block;
    };
    out += runCase("healthy/rr", DispatchKind::RoundRobin, 0, true);
    out += runCase("healthy/po2c", DispatchKind::Po2c, 0, true);
    out += runCase("failed=1/failover=on", DispatchKind::Po2c, 1,
                   true);
    out += runCase("failed=1/failover=off", DispatchKind::Po2c, 1,
                   false);
    return out;
}

struct GoldenCase
{
    const char *name;
    std::string (*run)();
};

const GoldenCase kCases[] = {
    {"fig03-small", fig03Small},
    {"fig14-small", fig14Small},
    {"fig18-small", fig18Small},
    {"fig_resilience-small", figResilienceSmall},
    {"fig_tail_attrib-small", figTailAttribSmall},
    {"fig_policy_race-small", figPolicyRaceSmall},
    {"fig_rack-small", figRackSmall},
};

std::string
readFile(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    ok = in.good();
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Point at the first differing line for a human-readable failure. */
void
printFirstDiff(const std::string &want, const std::string &got)
{
    std::istringstream a(want), b(got);
    std::string la, lb;
    int line = 0;
    while (true) {
        ++line;
        const bool ha = static_cast<bool>(std::getline(a, la));
        const bool hb = static_cast<bool>(std::getline(b, lb));
        if (!ha && !hb)
            return;
        if (!ha || !hb || la != lb) {
            std::fprintf(stderr, "  first diff at line %d:\n", line);
            std::fprintf(stderr, "    golden: %s\n",
                         ha ? la.c_str() : "<eof>");
            std::fprintf(stderr, "    actual: %s\n",
                         hb ? lb.c_str() : "<eof>");
            return;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string goldenDir = "bench/golden";
    std::string only;
    bool regen = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--golden-dir=", 0) == 0)
            goldenDir = arg.substr(std::strlen("--golden-dir="));
        else if (arg.rfind("--case=", 0) == 0)
            only = arg.substr(std::strlen("--case="));
        else if (arg == "--regen")
            regen = true;
        else
            fatal("unknown argument '%s'", arg.c_str());
    }
    setInformEnabled(false);

    int failures = 0;
    for (const GoldenCase &c : kCases) {
        if (!only.empty() && only != c.name)
            continue;
        const std::string path = goldenDir + "/" + c.name + ".txt";
        std::fprintf(stderr, "golden case %s...\n", c.name);
        const std::string got = c.run();
        if (regen) {
            writeTextFile(path, got);
            std::fprintf(stderr, "  regenerated %s (%zu bytes)\n",
                         path.c_str(), got.size());
            continue;
        }
        bool ok = false;
        const std::string want = readFile(path, ok);
        if (!ok) {
            std::fprintf(stderr,
                         "  MISSING golden %s (run with --regen)\n",
                         path.c_str());
            ++failures;
            continue;
        }
        if (want != got) {
            std::fprintf(stderr, "  MISMATCH vs %s\n", path.c_str());
            printFirstDiff(want, got);
            ++failures;
            continue;
        }
        std::fprintf(stderr, "  ok (%zu bytes)\n", got.size());
    }
    if (failures != 0) {
        std::fprintf(stderr,
                     "%d golden case(s) failed. If the change is "
                     "intentional, regenerate with --regen and "
                     "review the diff (EXPERIMENTS.md, "
                     "\"Validation\").\n",
                     failures);
        return 1;
    }
    std::printf("all golden cases match\n");
    return 0;
}
