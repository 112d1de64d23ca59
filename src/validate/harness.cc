#include "validate/harness.hh"

#include "arch/cluster_sim.hh"
#include "arch/presets.hh"
#include "sim/logging.hh"
#include "workload/loadgen.hh"
#include "workload/synthetic.hh"

namespace umany
{
namespace validate
{

MachineParams
validationMachineParams(std::uint32_t cores)
{
    if (cores == 0)
        fatal("validation machine needs at least one core");
    MachineParams p = uManycoreParams();
    p.name = "validation";
    p.numCores = cores;
    p.coresPerVillage = cores;
    p.villagesPerCluster = 1;
    p.hasMemoryPool = false;
    // Admission must never reject: the analytic models assume an
    // infinite waiting room. At any stable rho the backlog stays
    // tiny relative to this.
    p.rq.entries = 1u << 16;
    p.rq.nicBufferEntries = 1u << 16;
    return p;
}

ValidationResult
runValidationSim(const ValidationConfig &cfg)
{
    const double mu = 1e6 / cfg.serviceMeanUs; // per-core svc rate /s
    const double rho = cfg.rps / (mu * cfg.cores);
    if (rho >= 1.0)
        fatal("validation run is unstable: rho = %.3f", rho);

    SyntheticParams sp;
    sp.dist = cfg.deterministic ? SynthDist::Deterministic
                                : SynthDist::Exponential;
    sp.meanUs = cfg.serviceMeanUs;
    sp.minCalls = 0; // Pure compute: one segment, no blocking calls.
    sp.maxCalls = 0;
    const ServiceCatalog catalog = buildSynthetic(sp);

    const MachineParams machine = validationMachineParams(cfg.cores);
    ClusterSimParams cp;
    cp.numServers = 1;
    cp.seed = cfg.seed;

    EventQueue eq;
    ClusterSim sim(eq, catalog, machine, cp);

    LoadGenParams lp;
    lp.rps = cfg.rps;
    lp.kind = ArrivalKind::Poisson;
    lp.start = 0;
    lp.stop = cfg.warmup + cfg.measure;
    lp.seed = cfg.seed;
    LoadGenerator gen(eq, catalog, lp, [&sim](ServiceId ep) {
        sim.submitRoot(ep);
    });
    gen.start();

    // Windowed busy-time snapshots bracket the measurement interval
    // so warmup transients and the drain tail do not bias the
    // utilization estimate. Core busy time is accumulated at segment
    // end, so each snapshot can miss at most one in-progress segment
    // per core -- negligible against a multi-second window.
    auto totalBusy = [&sim]() {
        Tick busy = 0;
        for (const Core &c : sim.machine(0).cores())
            busy += c.busyTime();
        return busy;
    };
    Tick busyAtWarmup = 0;
    Tick busyAtStop = 0;
    ValidationResult r;
    eq.schedule(cfg.warmup, EvTag{EvSrc::Kernel}, [&]() {
        busyAtWarmup = totalBusy();
        if (cfg.clearNetStatsAtWarmup)
            sim.machine(0).network().clearStats();
        sim.setRecording(true);
    });
    eq.schedule(cfg.warmup + cfg.measure, EvTag{EvSrc::Kernel}, [&]() {
        busyAtStop = totalBusy();
        // Sampled here, not after the drain, so the utilization
        // window is exactly [warmup, warmup + measure).
        r.netMeanLinkUtil =
            sim.machine(0).network().meanLinkUtilization();
        r.netMaxLinkUtil =
            sim.machine(0).network().maxLinkUtilization();
    });
    sim.setRecording(false);
    r.drained =
        eq.runUntil(cfg.warmup + cfg.measure + cfg.drainLimit);

    const Histogram &lat = sim.allLatency();
    r.meanUs = toUs(static_cast<Tick>(lat.mean()));
    r.p50Us = toUs(lat.p50());
    r.p99Us = toUs(lat.p99());
    r.samples = lat.count();
    r.rejected = sim.rejectedRoots();
    r.utilization =
        static_cast<double>(busyAtStop - busyAtWarmup) /
        (static_cast<double>(cfg.measure) * cfg.cores);
    return r;
}

} // namespace validate
} // namespace umany
