/**
 * @file
 * Fig 6 reproduction: impact of per-context-switch overhead (in
 * cycles) on tail latency, on the 1024-core ScaleOut manycore
 * running the social-network services at 5K, 10K and 50K RPS.
 * Tail latency is normalized to the zero-overhead run per load.
 *
 * Paper shape: negligible impact up to ~128-256 cycles (the
 * hardware target); at 50K RPS, state-of-the-art software
 * schedulers (~2K cycles) degrade the tail 13-23x and Linux
 * (~5K cycles) 26-38x, because every switch runs through the
 * centralized software scheduler, which saturates.
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

    banner("Fig 6", "tail latency vs context-switch overhead");

    const ServiceCatalog catalog = buildSocialNetwork();
    const std::vector<std::uint32_t> cs_cycles = {
        0, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192};
    const std::vector<double> loads = {5000.0, 10000.0, 50000.0};

    // The sweep isolates CS cost: the dispatcher's fixed routing
    // work is kept small so the x=0 baseline is healthy even at
    // 50K RPS.
    Table t({"CS cycles", "5K RPS (norm tail)", "10K RPS (norm tail)",
             "50K RPS (norm tail)"});
    std::vector<std::vector<double>> tails(
        cs_cycles.size(), std::vector<double>(loads.size(), 0.0));

    for (std::size_t li = 0; li < loads.size(); ++li) {
        for (std::size_t ci = 0; ci < cs_cycles.size(); ++ci) {
            MachineParams mp = scaleOutParams();
            mp.dispatcher.opCycles = 800;
            mp.cs.scheme = CsScheme::Shinjuku; // software path
            mp.cs.saveCycles = cs_cycles[ci];
            mp.cs.restoreCycles = cs_cycles[ci];
            // Isolate context-switch effects from ICN contention
            // (Fig 7 studies the latter separately).
            mp.icnContention = false;
            BenchArgs one = args;
            one.servers = 1;
            std::fprintf(stderr, "cs=%u rps=%.0f...\n",
                         cs_cycles[ci], loads[li]);
            ExperimentConfig cfg =
                evalConfig(mp, loads[li], one, ArrivalKind::Bursty);
            cfg.obs = obsForPoint(args.obs, li * cs_cycles.size() + ci,
                                  loads.size() * cs_cycles.size());
            const RunMetrics m = runExperiment(catalog, cfg);
            tails[ci][li] = m.overall.p99Ms;
        }
    }

    for (std::size_t ci = 0; ci < cs_cycles.size(); ++ci) {
        std::vector<std::string> row{std::to_string(cs_cycles[ci])};
        for (std::size_t li = 0; li < loads.size(); ++li) {
            row.push_back(
                Table::num(tails[ci][li] / tails[0][li], 2));
        }
        t.addRow(std::move(row));
    }
    std::printf("%s\n", t.format().c_str());
    std::printf("markers: target HW solution 128-256 cycles; "
                "Shenango/Shinjuku/ZygOS ~1.8-2.4K; Linux ~5K\n");
    return 0;
}
