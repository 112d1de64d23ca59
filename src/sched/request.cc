#include "sched/request.hh"

#include <numeric>

namespace umany
{

const char *
reqStateName(ReqState s)
{
    switch (s) {
      case ReqState::Created:
        return "created";
      case ReqState::Queued:
        return "queued";
      case ReqState::Running:
        return "running";
      case ReqState::Blocked:
        return "blocked";
      case ReqState::Ready:
        return "ready";
      case ReqState::Finished:
        return "finished";
      case ReqState::Rejected:
        return "rejected";
    }
    return "unknown";
}

bool
Behavior::wellFormed() const
{
    if (segments.empty())
        return false;
    if (groupEnds.size() + 1 != segments.size())
        return false;
    std::uint32_t prev = 0;
    for (const std::uint32_t end : groupEnds) {
        if (end <= prev)
            return false;
        prev = end;
    }
    return prev == calls.size();
}

Tick
Behavior::totalWork() const
{
    return std::accumulate(segments.begin(), segments.end(), Tick{0});
}

ServiceRequest::ServiceRequest(RequestId id, ServiceId service,
                               Behavior behavior)
    : id_(id), service_(service), behavior_(std::move(behavior))
{
}

void
ServiceRequest::reset(RequestId id, ServiceId service)
{
    Behavior kept = std::move(behavior_);
    kept.clear();
    *this = ServiceRequest(id, service, std::move(kept));
}

} // namespace umany
