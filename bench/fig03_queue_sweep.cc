/**
 * @file
 * Fig 3 reproduction: average and tail response time on the
 * 1024-core ScaleOut manycore at 50K RPS as the number of request
 * queues varies from one per core (1024) to one shared queue (1),
 * with and without work stealing. Requests are assigned to queues
 * randomly (§3.2).
 *
 * Paper shape: a U: with 1024 queues the tail is ~4.1x the 32-queue
 * optimum (load imbalance); with 1 queue ~4.5x (synchronization);
 * work stealing fixes the many-queue end, adds overhead elsewhere,
 * and leaves the average mostly unchanged.
 *
 * To isolate queuing-structure effects, this experiment uses
 * hardware-cost context switching (the paper's Fig 3 predates the
 * scheduling/CS analysis); see EXPERIMENTS.md.
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
    const double rps = args.cfg.getDouble("rps", 50000.0);

    banner("Fig 3", "response time vs number of queues "
                    "(1024-core ScaleOut, 50K RPS)");

    const ServiceCatalog catalog = buildSocialNetwork();
    const std::vector<std::uint32_t> queue_counts = {
        1024, 512, 256, 128, 64, 32, 16, 8, 4, 2, 1};

    Table t({"queues", "avg (ms)", "tail (ms)", "avg steal (ms)",
             "tail steal (ms)"});
    const std::size_t npoints = 2 * queue_counts.size();
    std::size_t point = 0;
    for (const std::uint32_t q : queue_counts) {
        double avg[2];
        double tail[2];
        for (int steal = 0; steal < 2; ++steal) {
            MachineParams mp = scaleOutParams();
            mp.swQueueCount = q;
            mp.randomQueueAssignment = true;
            mp.workStealing = steal == 1;
            // Isolate queue-structure effects from CS costs and
            // ICN contention (Figs 6 and 7 study those separately).
            mp.cs = contextSwitchModel(CsScheme::HardwareRq);
            mp.icnContention = false;
            BenchArgs one = args;
            one.servers = 1;
            std::fprintf(stderr, "queues=%u steal=%d...\n", q, steal);
            ExperimentConfig cfg =
                evalConfig(mp, rps, one, ArrivalKind::Bursty);
            cfg.obs = obsForPoint(args.obs, point++, npoints);
            const RunMetrics m = runExperiment(catalog, cfg);
            avg[steal] = m.overall.avgMs;
            tail[steal] = m.overall.p99Ms;
        }
        t.addRow({std::to_string(q), Table::num(avg[0], 3),
                  Table::num(tail[0], 3), Table::num(avg[1], 3),
                  Table::num(tail[1], 3)});
    }
    std::printf("%s\n", t.format().c_str());
    std::printf("paper: tail at 1024 queues ~4.1x and at 1 queue "
                "~4.5x the 32-queue optimum; stealing helps only "
                "the many-queue end\n");
    return 0;
}
