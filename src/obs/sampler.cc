#include "obs/sampler.hh"

#include <algorithm>

#include "arch/cluster_sim.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace umany
{

Sampler::Sampler(EventQueue &eq, ClusterSim &sim, Tick interval)
    : eq_(eq), sim_(sim), interval_(interval)
{
    if (interval_ == 0)
        fatal("sampler interval must be positive");
}

void
Sampler::start(Tick until)
{
    until_ = until;
    scheduleNext();
}

void
Sampler::scheduleNext()
{
    // The last interval is clamped so the final sample lands exactly
    // at the stop tick; once there, nothing further is scheduled.
    const Tick now = eq_.now();
    if (now >= until_)
        return;
    eq_.schedule(std::min(now + interval_, until_),
                 EvTag{EvSrc::Sampler},
                 [this]() { tick(); });
}

void
Sampler::tick()
{
    Sample s;
    s.ts = eq_.now();
    s.inFlight = sim_.requestsInFlight();
    s.servers.reserve(sim_.numServers());
    for (ServerId sv = 0; sv < sim_.numServers(); ++sv) {
        Machine &m = sim_.machine(sv);
        ServerSample ss;
        for (VillageId v = 0; v < m.numVillages(); ++v) {
            const double depth =
                static_cast<double>(m.villageQueueDepth(v));
            ss.queueDepth += depth;
            ss.maxVillageDepth = std::max(ss.maxVillageDepth, depth);
        }
        ss.coreUtil = m.avgCoreUtilization();
        ss.linkUtil = m.network().meanLinkUtilization();
        s.servers.push_back(ss);

        UMANY_TRACE({
            TraceSink *sink = TraceSink::active();
            sink->counter(s.ts, sv, "queue_depth", ss.queueDepth);
            sink->counter(s.ts, sv, "core_util", ss.coreUtil);
            sink->counter(s.ts, sv, "link_util", ss.linkUtil);
        });
    }
    UMANY_TRACE(TraceSink::active()->counter(
        s.ts, 0, "in_flight",
        static_cast<double>(s.inFlight)));
    samples_.push_back(std::move(s));
    scheduleNext();
}

std::string
Sampler::toJson() const
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
    w.key("servers").beginArray();
    const std::size_t num_servers =
        samples_.empty() ? 0 : samples_.front().servers.size();
    for (std::size_t sv = 0; sv < num_servers; ++sv) {
        w.beginObject();
        w.key("queue_depth").beginArray();
        for (const Sample &s : samples_)
            w.value(s.servers[sv].queueDepth);
        w.endArray();
        w.key("max_village_depth").beginArray();
        for (const Sample &s : samples_)
            w.value(s.servers[sv].maxVillageDepth);
        w.endArray();
        w.key("core_util").beginArray();
        for (const Sample &s : samples_)
            w.value(s.servers[sv].coreUtil);
        w.endArray();
        w.key("link_util").beginArray();
        for (const Sample &s : samples_)
            w.value(s.servers[sv].linkUtil);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace umany
