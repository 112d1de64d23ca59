/**
 * @file
 * Ablations of the reproduction's own load-bearing modelling
 * choices (DESIGN.md §5) — not a paper figure, but the evidence for
 * why each mechanism is in the model. Each row toggles one knob and
 * reports the effect on tail latency at 15K RPS per server.
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

    banner("Design ablations",
           "one-knob-at-a-time effects on P99 at 15K RPS");

    const ServiceCatalog catalog = buildSocialNetwork();
    Table t({"knob", "machine", "P99 off/base (ms)",
             "P99 on/ablated (ms)", "effect"});

    // Two runs per knob, six knobs; each run writes its own
    // artifacts.
    const std::size_t npoints = 12;
    std::size_t point = 0;
    auto p99 = [&](const MachineParams &mp, ArrivalKind arrivals) {
        ExperimentConfig cfg = evalConfig(mp, rps, args, arrivals);
        cfg.obs = obsForPoint(args.obs, point++, npoints);
        return runExperiment(catalog, cfg).overall.p99Ms;
    };

    auto addRow = [&](const char *knob, const char *machine,
                      double base, double ablated) {
        t.addRow({knob, machine, Table::num(base, 3),
                  Table::num(ablated, 3),
                  Table::num(base > 0.0 ? ablated / base : 0.0, 2) +
                      "x"});
    };

    // 1. Bursty vs Poisson arrivals (ServerClass near saturation).
    {
        const MachineParams mp = serverClassParams();
        std::fprintf(stderr, "arrivals ablation...\n");
        const double bursty = p99(mp, ArrivalKind::Bursty);
        const double poisson = p99(mp, ArrivalKind::Poisson);
        addRow("bursty arrivals", "ServerClass", poisson, bursty);
    }

    // 2. Software RPC tax (ScaleOut with/without the per-message
    //    RPC-layer core cost). ICN contention is disabled so the
    //    dominant NIC-link term does not mask the effect.
    {
        MachineParams base = scaleOutParams();
        base.icnContention = false;
        MachineParams no_tax = base;
        no_tax.nic.swRxCycles = 0;
        no_tax.nic.swTxCycles = 0;
        std::fprintf(stderr, "rpc-tax ablation...\n");
        const double with_tax = p99(base, ArrivalKind::Bursty);
        const double without = p99(no_tax, ArrivalKind::Bursty);
        addRow("sw RPC tax", "ScaleOut", without, with_tax);
    }

    // 3. Centralized dispatcher cost (ScaleOut, light vs default),
    //    again with ICN contention out of the way.
    {
        MachineParams base = scaleOutParams();
        base.icnContention = false;
        MachineParams light = base;
        light.dispatcher.opCycles = 100;
        light.cs = contextSwitchModel(CsScheme::HardwareRq);
        std::fprintf(stderr, "dispatcher ablation...\n");
        const double heavy = p99(base, ArrivalKind::Bursty);
        const double cheap = p99(light, ArrivalKind::Bursty);
        addRow("centralized sw scheduler", "ScaleOut", cheap, heavy);
    }

    // 4. ICN contention (ScaleOut fat tree, on/off).
    {
        MachineParams base = scaleOutParams();
        MachineParams off = base;
        off.icnContention = false;
        std::fprintf(stderr, "icn ablation...\n");
        const double on = p99(base, ArrivalKind::Bursty);
        const double noc = p99(off, ArrivalKind::Bursty);
        addRow("ICN contention", "ScaleOut", noc, on);
    }

    // 5. Village migration scope: μManycore with 16-core villages.
    {
        MachineParams base = uManycoreParams();
        const MachineParams big =
            uManycoreConfigParams(16, 2, 32);
        std::fprintf(stderr, "village-size ablation...\n");
        const double small_v = p99(base, ArrivalKind::Bursty);
        const double big_v = p99(big, ArrivalKind::Bursty);
        addRow("16-core villages", "uManycore", small_v, big_v);
    }

    // 6. §8 future work: heterogeneous villages (25% big cores).
    {
        MachineParams base = uManycoreParams();
        MachineParams hetero = base;
        hetero.bigVillageFraction = 0.25;
        hetero.bigVillagePerfFactor = 0.75;
        std::fprintf(stderr, "hetero-villages ablation...\n");
        const double homo = p99(base, ArrivalKind::Bursty);
        const double het = p99(hetero, ArrivalKind::Bursty);
        addRow("25% big villages (s8)", "uManycore", homo, het);
    }

    std::printf("%s", t.format().c_str());
    return 0;
}
