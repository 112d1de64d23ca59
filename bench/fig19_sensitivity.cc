/**
 * @file
 * Fig 19 reproduction: tail latency of alternative μManycore
 * organizations (#cores per village x #villages per cluster x
 * #clusters) at 15K RPS, normalized to the default 8x4x32.
 *
 * Paper shape: all configurations within ~15% of one another;
 * services that call no other services prefer larger villages,
 * fan-out-heavy services prefer many smaller villages; the default
 * has the lowest overall tail.
 */

#include "bench/common.hh"

using namespace umany;
using namespace umany::bench;

int
main(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);
    setInformEnabled(false);
    const double rps = args.cfg.getDouble("rps", 15000.0);

    banner("Fig 19", "uManycore topology sensitivity at 15K RPS");

    const ServiceCatalog catalog = buildSocialNetwork();
    struct Cfg
    {
        const char *name;
        std::uint32_t cpv, vpc, clusters;
    };
    const std::vector<Cfg> cfgs = {
        {"8x4x32", 8, 4, 32},
        {"32x1x32", 32, 1, 32},
        {"32x2x16", 32, 2, 16},
        {"32x4x8", 32, 4, 8},
    };

    std::vector<RunMetrics> runs;
    std::vector<std::string> names;
    for (const Cfg &c : cfgs) {
        std::fprintf(stderr, "running %s...\n", c.name);
        ExperimentConfig cfg =
            evalConfig(uManycoreConfigParams(c.cpv, c.vpc, c.clusters),
                       rps, args, ArrivalKind::Bursty);
        cfg.obs = obsForPoint(args.obs, names.size(), cfgs.size());
        names.emplace_back(c.name);
        runs.push_back(runExperiment(catalog, cfg));
    }

    printNormalizedByApp("Fig 19: per-app tail latency by config",
                         names, runs,
                         [](const LatencyStats &s) { return s.p99Ms; },
                         "ms");

    Table t({"config", "overall P99 (ms)", "norm to 8x4x32"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        t.addRow({names[i], Table::num(runs[i].overall.p99Ms, 3),
                  Table::num(runs[i].overall.p99Ms /
                             runs[0].overall.p99Ms, 3)});
    }
    std::printf("%s\n", t.format().c_str());
    std::printf("paper: all configs within ~15%% of each other\n");
    return 0;
}
