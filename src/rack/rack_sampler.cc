#include "rack/rack_sampler.hh"

#include <algorithm>

#include "obs/json.hh"
#include "obs/trace.hh"
#include "rack/rack_sim.hh"
#include "sim/logging.hh"

namespace umany
{

RackSampler::RackSampler(EventQueue &eq, RackSim &sim, Tick interval)
    : eq_(eq), sim_(sim), interval_(interval)
{
    if (interval_ == 0)
        fatal("rack sampler interval must be positive");
}

void
RackSampler::start(Tick until)
{
    until_ = until;
    lastTs_ = eq_.now();
    lastBusy_ = sim_.net().busyTicks();
    scheduleNext();
}

void
RackSampler::scheduleNext()
{
    const Tick now = eq_.now();
    if (now >= until_)
        return;
    eq_.schedule(std::min(now + interval_, until_),
                 EvTag{EvSrc::Sampler},
                 [this]() { tick(); });
}

void
RackSampler::tick()
{
    const std::uint32_t stride = sim_.tracePidStride();
    Sample s;
    s.ts = eq_.now();
    s.inFlight = sim_.requestsInFlight();

    // Fabric utilization over the elapsed window: port-busy ticks
    // accumulated since the previous sample, spread over every
    // occupiable port.
    const std::uint64_t busy = sim_.net().busyTicks();
    const Tick dt = s.ts - lastTs_;
    if (dt > 0) {
        s.fabricLinkUtil =
            static_cast<double>(busy - lastBusy_) /
            (static_cast<double>(dt) * sim_.net().linkCount());
    }
    lastTs_ = s.ts;
    lastBusy_ = busy;

    s.packages.reserve(sim_.numPackages());
    for (std::uint32_t pkg = 0; pkg < sim_.numPackages(); ++pkg) {
        ClusterSim &cs = sim_.package(pkg);
        PackageSample ps;
        ps.lbInflight = static_cast<double>(sim_.inflight(pkg));
        for (ServerId sv = 0; sv < cs.numServers(); ++sv) {
            Machine &m = cs.machine(sv);
            double util = 0.0;
            for (VillageId v = 0; v < m.numVillages(); ++v) {
                const double depth =
                    static_cast<double>(m.villageQueueDepth(v));
                ps.queueDepth += depth;
                ps.maxVillageDepth =
                    std::max(ps.maxVillageDepth, depth);
            }
            util = m.avgCoreUtilization();
            ps.coreUtil += util;
        }
        ps.coreUtil /= static_cast<double>(cs.numServers());
        s.packages.push_back(ps);

        UMANY_TRACE({
            TraceSink *sink = TraceSink::active();
            const std::uint32_t pid = pkg * stride;
            sink->counter(s.ts, pid, "lb_inflight", ps.lbInflight);
            sink->counter(s.ts, pid, "queue_depth", ps.queueDepth);
            sink->counter(s.ts, pid, "core_util", ps.coreUtil);
        });
    }
    UMANY_TRACE({
        TraceSink *sink = TraceSink::active();
        sink->counter(s.ts, sim_.rackTracePid(), "in_flight",
                      static_cast<double>(s.inFlight));
        sink->counter(s.ts, sim_.rackTracePid(), "fabric_link_util",
                      s.fabricLinkUtil);
    });
    samples_.push_back(std::move(s));
    scheduleNext();
}

std::string
RackSampler::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("interval_us").value(toUs(interval_));
    w.key("ts_us").beginArray();
    for (const Sample &s : samples_)
        w.value(toUs(s.ts));
    w.endArray();
    w.key("in_flight").beginArray();
    for (const Sample &s : samples_)
        w.value(s.inFlight);
    w.endArray();
    w.key("fabric_link_util").beginArray();
    for (const Sample &s : samples_)
        w.value(s.fabricLinkUtil);
    w.endArray();
    w.key("packages").beginArray();
    const std::size_t num_pkgs =
        samples_.empty() ? 0 : samples_.front().packages.size();
    for (std::size_t pkg = 0; pkg < num_pkgs; ++pkg) {
        w.beginObject();
        w.key("lb_inflight").beginArray();
        for (const Sample &s : samples_)
            w.value(s.packages[pkg].lbInflight);
        w.endArray();
        w.key("queue_depth").beginArray();
        for (const Sample &s : samples_)
            w.value(s.packages[pkg].queueDepth);
        w.endArray();
        w.key("max_village_depth").beginArray();
        for (const Sample &s : samples_)
            w.value(s.packages[pkg].maxVillageDepth);
        w.endArray();
        w.key("core_util").beginArray();
        for (const Sample &s : samples_)
            w.value(s.packages[pkg].coreUtil);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace umany
