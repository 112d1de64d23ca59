/**
 * @file
 * Rack scale: multi-package μManycore behind a front-end load
 * balancer (src/rack/). Three sweeps on one social-network
 * workload, each a tail-at-scale story the paper's single-package
 * figures cannot show:
 *
 *  - scale: P99.9 vs package count at fixed per-server load. More
 *    packages mean more independent burst sources and a fan-in LB;
 *    the inter-package fabric (RDMA-class vs a nanoPU-style
 *    NIC-to-core fast path, --net=) sets the latency floor.
 *  - policy: the LB replica-selection race (rr vs po2c vs jsqd over
 *    package-level occupancy) at fixed rack size. Probing policies
 *    should shave the tail once packages see uncorrelated bursts.
 *  - failover: k packages hard-fail mid-measure; with --failover
 *    the LB routes around them (goodput holds, survivors absorb
 *    the load), without it the LB keeps dispatching into the dead
 *    packages and sheds.
 *
 * Every point runs with the attribution ledger on: the P99.9 column
 * is the ledger's client-observed latency (package latency plus
 * both inter-package hops, AttribComp::PkgHop), and the mismatches
 * column pins that the ledger still sums to end-to-end at rack
 * scale.
 *
 * Extra flags (beyond bench/common.hh):
 *   --packages-list=1,2,4   scale-sweep package counts
 *   --packages=4            rack size for the policy/failover sweeps
 *   --replica-policies=rr,po2c,jsqd
 *   --replicas=R            replica packages per endpoint (0 = all)
 *   --net=rdma|nanopu       inter-package fabric design point
 *   --fail-list=1,2         failed-package counts for the failover
 *                           sweep (each raced with failover on/off)
 *   --rps=N                 offered load per server per package
 *   --arrivals=poisson|bursty
 *   --het=1                 heterogeneous rack: odd packages run the
 *                           ScaleOut machine instead of uManycore
 */

#include <cstdlib>

#include "bench/common.hh"
#include "rack/rack_experiment.hh"
#include "workload/synthetic.hh"

using namespace umany;
using namespace umany::bench;

namespace
{

/** Parse "a,b,c" into non-negative integers; fatal on junk. */
std::vector<std::uint32_t>
parseIntList(const std::string &s)
{
    std::vector<std::uint32_t> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string tok = s.substr(pos, comma - pos);
        char *end = nullptr;
        const long v = std::strtol(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0' || v < 0)
            fatal("bad list element '%s'", tok.c_str());
        out.push_back(static_cast<std::uint32_t>(v));
        pos = comma + 1;
    }
    if (out.empty())
        fatal("empty list");
    return out;
}

/** Parse "rr,po2c,..." into dispatch kinds. */
std::vector<DispatchKind>
parsePolicies(const std::string &s)
{
    std::vector<DispatchKind> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        out.push_back(
            parseDispatchKind(s.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    if (out.empty())
        fatal("no policies given");
    return out;
}

/** One sweep point. */
struct Spec
{
    const char *section;
    std::uint32_t packages;
    DispatchKind policy;
    std::uint32_t failed;
    bool failover;
};

struct PointResult
{
    RunMetrics metrics;
    StatsDump stats;
    AttribResult attrib;
};

/** Merged client-observed latency across endpoints. */
Histogram
mergedLatency(const TailProfiler &prof)
{
    Histogram h;
    for (const auto &[ep, profile] : prof.endpoints())
        h.merge(profile.latencyTicks);
    return h;
}

/** A rack.* stat when racked, 0 for the inert one-package rack. */
double
rackStat(const StatsDump &stats, const char *name)
{
    return stats.has(name) ? stats.value(name) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    setInformEnabled(false);

    const std::vector<std::uint32_t> packagesList = parseIntList(
        args.cfg.getString("packages_list", "1,2,4"));
    const std::uint32_t packages = static_cast<std::uint32_t>(
        args.cfg.getInt("packages", 4));
    const std::vector<DispatchKind> policies = parsePolicies(
        args.cfg.getString("replica_policies", "rr,po2c,jsqd"));
    const std::vector<std::uint32_t> failList =
        parseIntList(args.cfg.getString("fail_list", "1,2"));
    const std::uint32_t replicas = static_cast<std::uint32_t>(
        args.cfg.getInt("replicas", 0));
    const RackNetKind net =
        parseRackNetKind(args.cfg.getString("net", "rdma"));
    const double rps = args.cfg.getDouble("rps", 5000.0);
    const std::string arriv =
        args.cfg.getString("arrivals", "bursty");
    if (arriv != "poisson" && arriv != "bursty")
        fatal("arrivals must be poisson or bursty (got '%s')",
              arriv.c_str());
    const ArrivalKind arrivals = arriv == "bursty"
                                     ? ArrivalKind::Bursty
                                     : ArrivalKind::Poisson;
    const bool het = args.cfg.getBool("het", false);

    banner("Fig rack",
           "multi-package rack: scale, replica policy, failover");

    const ServiceCatalog social = buildSocialNetwork();

    std::vector<Spec> specs;
    for (const std::uint32_t p : packagesList)
        specs.push_back({"scale", p, DispatchKind::Po2c, 0, true});
    for (const DispatchKind k : policies)
        specs.push_back({"policy", packages, k, 0, true});
    for (const std::uint32_t f : failList) {
        specs.push_back(
            {"failover", packages, DispatchKind::Po2c, f, true});
        specs.push_back(
            {"failover", packages, DispatchKind::Po2c, f, false});
    }

    SweepRunner runner(args.jobs);
    const std::vector<PointResult> runs =
        runner.map<PointResult>(specs.size(), [&](std::size_t i) {
            const Spec &s = specs[i];
            std::fprintf(stderr,
                         "running %s: %u pkgs, %s, %u failed, "
                         "failover=%d...\n",
                         s.section, s.packages,
                         dispatchKindName(s.policy), s.failed,
                         s.failover ? 1 : 0);
            RackExperimentConfig cfg;
            cfg.base = evalConfig(uManycoreParams(), rps, args,
                                  arrivals);
            cfg.base.obs = obsForPoint(args.obs, i, specs.size());
            cfg.base.obs.attrib = true;
            cfg.rack.packages = s.packages;
            cfg.rack.replicas = replicas;
            cfg.rack.replica.kind = s.policy;
            cfg.rack.net = net;
            cfg.rack.failover = s.failover;
            if (het && s.packages > 1) {
                // Straggler rack: odd packages run the ScaleOut
                // machine, so occupancy-probing replica policies
                // have something to route around.
                for (std::uint32_t p = 0; p < s.packages; ++p) {
                    cfg.machines.push_back(p % 2 == 1
                                               ? scaleOutParams()
                                               : uManycoreParams());
                }
            }
            if (s.failed > 0) {
                // Hard package loss a quarter into the measurement
                // window; recovery on, so stranded roots retry and
                // eventually give up instead of hanging the drain.
                cfg.base.cluster.recovery.enabled = true;
                cfg.base.faults = randomPackageFailures(
                    s.packages, s.failed,
                    cfg.base.warmup + cfg.base.measure / 4,
                    cfg.base.seed);
            }
            PointResult r;
            r.metrics = runRackExperiment(social, cfg, &r.stats,
                                          &r.attrib);
            return r;
        });

    Table t({"section", "pkgs", "policy", "failed", "failover",
             "P99.9 (ms)", "goodput (Krps)", "reject %",
             "hop p99 (us)", "sheds", "mismatches"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Spec &s = specs[i];
        const PointResult &r = runs[i];
        const Histogram lat = mergedLatency(r.attrib.profiler);
        t.addRow({s.section, Table::num(s.packages, 0),
                  dispatchKindName(s.policy),
                  Table::num(s.failed, 0), s.failover ? "on" : "off",
                  Table::num(toMs(lat.quantile(0.999)), 3),
                  Table::num(r.metrics.throughputRps / 1000.0, 1),
                  Table::num(r.metrics.rejectionRate() * 100.0, 2),
                  Table::num(rackStat(r.stats, "rack.hop.p99Us"),
                             2),
                  Table::num(rackStat(r.stats,
                                      "rack.lb.shedRoots"),
                             0),
                  Table::num(static_cast<double>(
                                 r.attrib.ledgerMismatches),
                             0)});
    }
    std::printf("%s\n", t.format().c_str());

    std::printf(
        "P99.9 is client-observed (package latency + both "
        "inter-package hops, net=%s);\nmismatches counts roots "
        "whose attribution ledger missed end-to-end by > 1 tick.\n",
        rackNetKindName(net));
    return 0;
}
