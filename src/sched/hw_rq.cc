#include "sched/hw_rq.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace umany
{

HwRq::HwRq(const HwRqParams &p) : p_(p)
{
    if (p_.entries == 0)
        fatal("hardware RQ needs at least one entry");
}

RqAdmit
HwRq::admit(std::uint64_t seq, ServiceRequest *req)
{
    if (inFlight_ < p_.entries) {
        ++inFlight_;
        ++admitted_;
        ready_.insert(seq, req);
        return RqAdmit::Admitted;
    }
    if (nicBuffer_.size() < p_.nicBufferEntries) {
        nicBuffer_.emplace_back(seq, req);
        return RqAdmit::Buffered;
    }
    ++rejected_;
    return RqAdmit::Rejected;
}

void
HwRq::makeReady(std::uint64_t seq, ServiceRequest *req)
{
    // The entry already counts against inFlight_ (it was admitted
    // and is currently blocked); only the ready order changes.
    ready_.insert(seq, req);
}

ServiceRequest *
HwRq::dequeue(Tick now, Tick &done)
{
    done = now + cyclesToTicks(
                     static_cast<double>(p_.dequeueCycles), p_.ghz);
    return ready_.popFront();
}

ServiceRequest *
HwRq::stealYoungest(ServiceRequest *&promoted)
{
    promoted = nullptr;
    ServiceRequest *req = ready_.popBack();
    if (req == nullptr)
        return nullptr;
    ++stealsOut_;
    promoted = releaseEntry();
    return req;
}

void
HwRq::adoptStolen()
{
    ++inFlight_;
    ++stealsIn_;
}

ServiceRequest *
HwRq::complete(ServiceId)
{
    if (inFlight_ == 0)
        panic("RQ complete with no in-flight entries");
    ++completes_;
    return releaseEntry();
}

ServiceRequest *
HwRq::releaseEntry()
{
    if (inFlight_ == 0)
        panic("RQ entry release with no in-flight entries");
    --inFlight_;
    if (nicBuffer_.empty())
        return nullptr;
    // Promote the oldest buffered request.
    const auto [seq, req] = nicBuffer_.front();
    nicBuffer_.pop_front();
    ++inFlight_;
    ++admitted_;
    ready_.insert(seq, req);
    return req;
}

void
HwRq::coreIdle(CoreId core)
{
    idleCores_.push_back(core);
}

CoreId
HwRq::claimIdleCore()
{
    if (idleCores_.empty())
        return invalidId;
    const CoreId core = idleCores_.back();
    idleCores_.pop_back();
    return core;
}

} // namespace umany
