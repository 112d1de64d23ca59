#include "validate/invariants.hh"

#include <cstdarg>
#include <cstdio>

#include "sched/request.hh"
#include "sim/logging.hh"

namespace umany
{

namespace
{

/** A request id for a message: ids are 64-bit, and a rack package
 *  keeps its index in the high bits. */
unsigned long long
idOf(const ServiceRequest &req)
{
    return static_cast<unsigned long long>(req.id());
}

} // namespace

thread_local InvariantChecker *InvariantChecker::active_ = nullptr;

InvariantChecker::InvariantChecker(std::uint64_t auditPeriod)
    : auditPeriod_(auditPeriod)
{
}

InvariantChecker *
InvariantChecker::active()
{
    return active_;
}

void
InvariantChecker::violation(const std::string &msg)
{
    violations_.push_back(msg);
    if (abortOnViolation_)
        panic("invariant violation: %s", msg.c_str());
}

void
InvariantChecker::expect(bool cond, const char *fmt, ...)
{
    if (cond)
        return;
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    violation(buf);
}

void
InvariantChecker::countEvent()
{
    ++events_;
    if (auditPeriod_ != 0 && events_ % auditPeriod_ == 0)
        runAudits();
}

InvariantChecker::ReqTrack *
InvariantChecker::track(const ServiceRequest &req, const char *hook)
{
    auto it = reqs_.find(req.id());
    if (it == reqs_.end()) {
        expect(false, "req %llu: %s before any enqueue", idOf(req),
               hook);
        return nullptr;
    }
    return &it->second;
}

void
InvariantChecker::onEnqueue(const ServiceRequest &req)
{
    countEvent();
    auto [it, fresh] = reqs_.try_emplace(req.id());
    ReqTrack &t = it->second;
    if (fresh) {
        // First sighting: arrival into a village queue.
        t.phase = Ph::Queued;
        t.enqueues = 1;
        return;
    }
    // Re-enqueue after unblocking.
    expect(t.phase == Ph::Blocked,
           "req %llu: re-enqueued while not blocked (phase %u)",
           idOf(req), static_cast<unsigned>(t.phase));
    t.phase = Ph::Queued;
    t.enqueues += 1;
}

void
InvariantChecker::onDequeue(const ServiceRequest &req)
{
    countEvent();
    ReqTrack *t = track(req, "dequeue");
    if (t == nullptr)
        return;
    expect(t->phase == Ph::Queued,
           "req %llu: dequeued while not queued (phase %u)", idOf(req),
           static_cast<unsigned>(t->phase));
    t->phase = Ph::Running;
    t->dequeues += 1;
    expect(t->dequeues == t->enqueues,
           "req %llu: %u dequeues vs %u enqueues", idOf(req),
           t->dequeues, t->enqueues);
}

void
InvariantChecker::onBlock(const ServiceRequest &req)
{
    countEvent();
    ReqTrack *t = track(req, "block");
    if (t == nullptr)
        return;
    expect(t->phase == Ph::Running,
           "req %llu: blocked while not running (phase %u)", idOf(req),
           static_cast<unsigned>(t->phase));
    expect(req.pendingChildren > 0,
           "req %llu: blocked with no pending children", idOf(req));
    t->phase = Ph::Blocked;
}

void
InvariantChecker::onComplete(const ServiceRequest &req)
{
    countEvent();
    ReqTrack *t = track(req, "complete");
    if (t == nullptr)
        return;
    expect(t->phase == Ph::Running,
           "req %llu: completed while not running (phase %u)",
           idOf(req), static_cast<unsigned>(t->phase));
    t->phase = Ph::Completed;
    t->completes += 1;
    expect(t->completes == 1, "req %llu: completed %u times", idOf(req),
           t->completes);
    expect(t->dequeues == t->enqueues,
           "req %llu: completed with %u dequeues vs %u enqueues",
           idOf(req), t->dequeues, t->enqueues);
}

void
InvariantChecker::onSteal(const ServiceRequest &req)
{
    countEvent();
    ReqTrack *t = track(req, "steal");
    if (t == nullptr)
        return;
    expect(t->phase == Ph::Queued,
           "req %llu: stolen while not queued (phase %u)", idOf(req),
           static_cast<unsigned>(t->phase));
    // A steal relocates the queued entry between villages; the
    // request is still queued and its enqueue/dequeue balance is
    // untouched.
    ++steals_;
}

void
InvariantChecker::onPreempt(const ServiceRequest &req)
{
    countEvent();
    ReqTrack *t = track(req, "preempt");
    if (t == nullptr)
        return;
    expect(t->phase == Ph::Running,
           "req %llu: preempted while not running (phase %u)",
           idOf(req), static_cast<unsigned>(t->phase));
    t->phase = Ph::Queued;
    // The preempted request re-enters its queue: count the enqueue
    // so the next dequeue keeps dequeues == enqueues.
    t->enqueues += 1;
    ++preemptions_;
}

void
InvariantChecker::onReject(const ServiceRequest &req)
{
    countEvent();
    auto [it, fresh] = reqs_.try_emplace(req.id());
    ReqTrack &t = it->second;
    if (fresh) {
        // Shed at the NIC before reaching any village queue (no
        // reachable instance under faults).
        t.phase = Ph::Rejected;
        return;
    }
    expect(t.phase == Ph::Queued && t.dequeues == 0,
           "req %llu: rejected after it started (phase %u)", idOf(req),
           static_cast<unsigned>(t.phase));
    t.phase = Ph::Rejected;
}

void
InvariantChecker::onDestroy(const ServiceRequest &req)
{
    countEvent();
    ReqTrack *t = track(req, "destroy");
    if (t == nullptr)
        return;
    expect(t->phase == Ph::Completed || t->phase == Ph::Rejected,
           "req %llu: destroyed while still active (phase %u)",
           idOf(req), static_cast<unsigned>(t->phase));
    expect(req.pendingChildren == 0,
           "req %llu: destroyed with %u pending children", idOf(req),
           req.pendingChildren);
    reqs_.erase(req.id());
}

void
InvariantChecker::onNetSend()
{
    ++netSent_;
    countEvent();
}

void
InvariantChecker::onNetDeliver()
{
    ++netDelivered_;
    expect(netDelivered_ + netDropped_ <= netSent_,
           "network resolved %llu messages but only %llu were sent",
           static_cast<unsigned long long>(netDelivered_ +
                                           netDropped_),
           static_cast<unsigned long long>(netSent_));
    countEvent();
}

void
InvariantChecker::onNetDrop()
{
    ++netDropped_;
    expect(netDelivered_ + netDropped_ <= netSent_,
           "network resolved %llu messages but only %llu were sent",
           static_cast<unsigned long long>(netDelivered_ +
                                           netDropped_),
           static_cast<unsigned long long>(netSent_));
    countEvent();
}

void
InvariantChecker::addAuditor(std::string name, AuditFn fn)
{
    auditors_.emplace_back(std::move(name), std::move(fn));
}

void
InvariantChecker::addFinalAuditor(std::string name, AuditFn fn)
{
    finalAuditors_.emplace_back(std::move(name), std::move(fn));
}

void
InvariantChecker::clearAuditors()
{
    auditors_.clear();
    finalAuditors_.clear();
}

void
InvariantChecker::runAudits()
{
    ++auditRuns_;
    for (auto &[name, fn] : auditors_)
        fn(*this);
}

void
InvariantChecker::finalCheck()
{
    runAudits();
    expect(reqs_.empty(),
           "%zu requests still tracked after drain (first id %llu)",
           reqs_.size(),
           static_cast<unsigned long long>(
               reqs_.empty() ? 0 : reqs_.begin()->first));
    expect(netSent_ == netDelivered_ + netDropped_,
           "flights outlived their messages: %llu sent vs %llu "
           "delivered + %llu dropped",
           static_cast<unsigned long long>(netSent_),
           static_cast<unsigned long long>(netDelivered_),
           static_cast<unsigned long long>(netDropped_));
    for (auto &[name, fn] : finalAuditors_)
        fn(*this);
}

} // namespace umany
