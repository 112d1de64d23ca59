#include "obs/trace.hh"

#include "sched/request.hh"
#include "sim/logging.hh"

namespace umany
{

TraceSink::TraceSink(std::size_t capacity) : cap_(capacity)
{
    buf_.reserve(cap_);
}

const char *
traceCategoryName(std::size_t index)
{
    switch (index) {
      case 0: return "village";
      case 1: return "core";
      case 2: return "swq";
      case 3: return "dispatcher";
      case 4: return "nic";
      case 5: return "icn";
      case 6: return "counters";
      case 7: return "client";
      case 8: return "lb";
      case 9: return "fabric";
    }
    return "?";
}

std::uint32_t
parseTraceFilter(const std::string &spec)
{
    if (spec.empty())
        return traceTrackAll;
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;
        if (tok == "village")
            mask |= traceTrackVillage;
        else if (tok == "core")
            mask |= traceTrackCore;
        else if (tok == "swq")
            mask |= traceTrackSwq;
        else if (tok == "dispatcher")
            mask |= traceTrackDispatcher;
        else if (tok == "nic")
            mask |= traceTrackNic;
        else if (tok == "icn" || tok == "net")
            mask |= traceTrackIcn;
        else if (tok == "counters")
            mask |= traceTrackCounters;
        else if (tok == "client")
            mask |= traceTrackClient;
        else if (tok == "lb")
            mask |= traceTrackLb;
        else if (tok == "fabric")
            mask |= traceTrackFabric;
        else if (tok == "all")
            mask |= traceTrackAll;
        else
            warn("trace-filter: unknown track '%s' (expected "
                 "village, core, swq, dispatcher, nic, icn, "
                 "counters, client, lb, fabric, or all)",
                 tok.c_str());
    }
    if (mask == 0 && !spec.empty()) {
        warn("trace-filter '%s' matched no known track; recording "
             "all tracks instead",
             spec.c_str());
    }
    return mask != 0 ? mask : traceTrackAll;
}

std::string
traceDropBreakdown(const TraceSink &sink)
{
    std::string out;
    const auto &drops = sink.droppedByCategory();
    for (std::size_t i = 0; i < traceNumCategories; ++i) {
        if (drops[i] == 0)
            continue;
        out += strprintf("%s%s %llu", out.empty() ? "" : ", ",
                         traceCategoryName(i),
                         static_cast<unsigned long long>(drops[i]));
    }
    return out;
}

void
traceReqCreated(Tick ts, const ServiceRequest &req, std::uint32_t pid,
                std::uint32_t pid_base)
{
    TraceSink *s = TraceSink::active();
    if (s == nullptr)
        return;
    s->spanBegin(ts, pid_base + pid, 0,
                 reqStateName(ReqState::Created), req.id());
    if (req.parent != nullptr) {
        // Parent -> child RPC edge: the flow arrow starts where the
        // parent issued the call and ends (in traceReqTransition)
        // where the child first makes progress. The child's own id
        // keys the arrow, so fan-out edges stay distinct. Parent and
        // child always share a package, so one base covers both.
        const ServiceRequest &p = *req.parent;
        const std::uint32_t ppid =
            pid_base + (p.server == invalidId ? 0 : p.server);
        const std::uint64_t ptid =
            p.village == invalidId ? 0 : traceVillageTrack(p.village);
        s->flowStart(ts, ppid, ptid, "rpc", req.id());
    }
}

void
traceReqTransition(Tick ts, const ServiceRequest &req, ReqState next,
                   std::uint32_t pid_base)
{
    TraceSink *s = TraceSink::active();
    if (s == nullptr || req.state == next)
        return;
    const std::uint32_t pid =
        pid_base + (req.server == invalidId ? 0 : req.server);
    const std::uint64_t tid =
        req.village == invalidId ? 0 : traceVillageTrack(req.village);
    if (req.state == ReqState::Created && req.parent != nullptr) {
        // The child reached its village: terminate the RPC arrow.
        s->flowEnd(ts, pid, tid, "rpc", req.id());
    }
    s->spanEnd(ts, pid, tid, reqStateName(req.state), req.id());
    if (next == ReqState::Finished || next == ReqState::Rejected) {
        s->instant(ts, pid, tid, reqStateName(next), req.id());
        return;
    }
    s->spanBegin(ts, pid, tid, reqStateName(next), req.id());
}

} // namespace umany
