#include "obs/simprof.hh"

#include "obs/json.hh"
#include "sim/logging.hh"

namespace umany
{

const char *
evSrcName(EvSrc src)
{
    switch (src) {
      case EvSrc::Other: return "other";
      case EvSrc::Kernel: return "kernel";
      case EvSrc::Sampler: return "sampler";
      case EvSrc::LoadGen: return "loadgen";
      case EvSrc::Fault: return "fault";
      case EvSrc::NocHop: return "noc_hop";
      case EvSrc::NocDeliver: return "noc_deliver";
      case EvSrc::NetExternal: return "net_external";
      case EvSrc::RpcNic: return "rpc_nic";
      case EvSrc::SchedDispatch: return "sched_dispatch";
      case EvSrc::ClientRetry: return "client_retry";
      case EvSrc::CoreRun: return "core_run";
      case EvSrc::CtxSwitch: return "ctx_switch";
      case EvSrc::MemCoherence: return "mem_coherence";
      case EvSrc::ReqComplete: return "req_complete";
    }
    return "invalid";
}

SimProfiler::SimProfiler(std::uint32_t batch_events)
    : batchEvents_(batch_events ? batch_events : 1),
      batchStart_(HostClock::now())
{
}

void
SimProfiler::flushBatch()
{
    const auto t = HostClock::now();
    const double delta =
        std::chrono::duration<double, std::nano>(t - batchStart_)
            .count();
    batchStart_ = t;
    const double n = static_cast<double>(batchN_);
    // Distribute the batch's host time across the sources executed
    // inside it, proportionally to their event counts: the whole
    // delta is assigned, so per-source shares sum to the total.
    for (std::size_t s = 0; s < kNumEvSrcs; ++s) {
        if (batchCount_[s] == 0)
            continue;
        srcHostNs_[s] +=
            delta * static_cast<double>(batchCount_[s]) / n;
        srcEvents_[s] += batchCount_[s];
        batchCount_[s] = 0;
    }
    totalEvents_ += batchN_;
    totalHostNs_ += delta;
    batchN_ = 0;

    ++flushes_;
    if (flushes_ % timelineStride_ == 0) {
        timeline_.push_back(
            TimelinePoint{lastNow_, totalEvents_, totalHostNs_});
        if (timeline_.size() >= maxTimelinePoints) {
            // Keep every other point and double the stride so the
            // series stays bounded on arbitrarily long runs.
            std::size_t w = 0;
            for (std::size_t r = 0; r < timeline_.size(); r += 2)
                timeline_[w++] = timeline_[r];
            timeline_.resize(w);
            timelineStride_ *= 2;
        }
    }
}

void
SimProfiler::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    if (batchN_ > 0)
        flushBatch();
}

namespace
{

void
histogramJson(JsonWriter &w, const Histogram &h)
{
    w.beginObject();
    w.key("count").value(h.count());
    w.key("min").value(h.min());
    w.key("max").value(h.max());
    w.key("mean").value(h.mean());
    w.key("p50").value(h.p50());
    w.key("p99").value(h.p99());
    w.endObject();
}

} // namespace

std::string
SimProfiler::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("umany.sim_profile.v2");
    w.key("clock_batch_events").value(
        static_cast<std::uint64_t>(batchEvents_));

    w.key("events").beginObject();
    w.key("total").value(totalEvents_);
    w.key("per_source").beginArray();
    for (std::size_t s = 0; s < kNumEvSrcs; ++s) {
        if (srcEvents_[s] == 0)
            continue;
        w.beginObject();
        w.key("source").value(
            evSrcName(static_cast<EvSrc>(s)));
        w.key("events").value(srcEvents_[s]);
        w.key("host_ns").value(srcHostNs_[s]);
        w.key("host_share").value(
            totalHostNs_ > 0.0 ? srcHostNs_[s] / totalHostNs_
                               : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("host").beginObject();
    w.key("total_ns").value(totalHostNs_);
    w.key("events_per_sec")
        .value(totalHostNs_ > 0.0
                   ? static_cast<double>(totalEvents_) * 1e9 /
                         totalHostNs_
                   : 0.0);
    w.endObject();

    w.key("queue").beginObject();
    w.key("occupancy");
    histogramJson(w, occupancy_);
    w.key("horizon_ticks");
    histogramJson(w, horizon_);
    w.endObject();

    w.key("timeline").beginObject();
    w.key("sim_us").beginArray();
    for (const TimelinePoint &p : timeline_)
        w.value(toUs(p.simNow));
    w.endArray();
    w.key("events").beginArray();
    for (const TimelinePoint &p : timeline_)
        w.value(p.events);
    w.endArray();
    w.key("host_ns").beginArray();
    for (const TimelinePoint &p : timeline_)
        w.value(p.hostNs);
    w.endArray();
    w.endObject();

    w.endObject();
    return w.str();
}

std::string
SimProfiler::formatTable() const
{
    std::string out;
    out += "-- sim profile: host time by event source "
           "--------------------\n";
    out += strprintf("%-15s %12s %6s %10s %6s\n", "source",
                     "events", "ev%", "host ms", "host%");
    for (std::size_t s = 0; s < kNumEvSrcs; ++s) {
        if (srcEvents_[s] == 0)
            continue;
        out += strprintf(
            "%-15s %12llu %6.1f %10.2f %6.1f\n",
            evSrcName(static_cast<EvSrc>(s)),
            static_cast<unsigned long long>(srcEvents_[s]),
            totalEvents_
                ? 100.0 * static_cast<double>(srcEvents_[s]) /
                      static_cast<double>(totalEvents_)
                : 0.0,
            srcHostNs_[s] / 1e6,
            totalHostNs_ > 0.0
                ? 100.0 * srcHostNs_[s] / totalHostNs_
                : 0.0);
    }
    out += strprintf(
        "%-15s %12llu %6.1f %10.2f %6.1f  (%.2f M events/s)\n",
        "total", static_cast<unsigned long long>(totalEvents_),
        100.0, totalHostNs_ / 1e6, 100.0,
        totalHostNs_ > 0.0
            ? static_cast<double>(totalEvents_) * 1e3 / totalHostNs_
            : 0.0);
    out += strprintf(
        "queue occupancy p50/p99/max: %llu / %llu / %llu\n",
        static_cast<unsigned long long>(occupancy_.p50()),
        static_cast<unsigned long long>(occupancy_.p99()),
        static_cast<unsigned long long>(occupancy_.max()));
    out += strprintf(
        "schedule horizon p50/p99: %.2f / %.2f us (sampled 1/%u)\n",
        toUs(horizon_.p50()), toUs(horizon_.p99()),
        1u << horizonSampleShift);
    return out;
}

} // namespace umany
