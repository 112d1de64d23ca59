#include "obs/attrib.hh"

#include <algorithm>

#include "obs/tail_profiler.hh"
#include "sched/request.hh"
#include "sim/logging.hh"
#include "validate/invariants.hh"

namespace umany
{

const char *
attribCompName(AttribComp c)
{
    switch (c) {
      case AttribComp::NicDispatch: return "nic_dispatch";
      case AttribComp::RqWait: return "rq_wait";
      case AttribComp::CtxSwitch: return "ctx_switch";
      case AttribComp::ServiceExec: return "service_exec";
      case AttribComp::CoherenceStall: return "coherence_stall";
      case AttribComp::IcnQueue: return "icn_queue";
      case AttribComp::IcnAccess: return "icn_access";
      case AttribComp::IcnLeaf: return "icn_leaf";
      case AttribComp::IcnSpine: return "icn_spine";
      case AttribComp::IcnCore: return "icn_core";
      case AttribComp::IcnOther: return "icn_other";
      case AttribComp::BlockedOnChild: return "blocked_on_child";
      case AttribComp::RetryBackoff: return "retry_backoff";
      case AttribComp::PkgHop: return "pkg_hop";
    }
    return "unknown";
}

AttribRegistry::AttribRegistry()
    : profiler_(std::make_unique<TailProfiler>())
{
}

AttribRegistry::~AttribRegistry() = default;

void
AttribRegistry::setTopK(std::size_t k)
{
    profiler_->setTopK(k);
}

void
AttribRegistry::onCreate(ServiceRequest &req, Tick now)
{
    AttribRecord *rec = pool_.reuse();
    if (rec != nullptr)
        rec->reset();
    else
        rec = pool_.adopt(std::make_unique<AttribRecord>());
    rec->id = req.id();
    rec->service = req.service();
    rec->rootEndpoint = req.rootEndpoint;
    rec->startedAt = now;
    rec->createdAt = now;
    rec->lastTs = now;
    if (req.parent != nullptr) {
        rec->parent = req.parent->id();
        rec->group = req.parent->blockedGroup;
        if (req.parent->attrib != nullptr)
            req.parent->attrib->children.push_back(rec);
    }
    req.attrib = rec;
}

void
AttribRegistry::charge(ServiceRequest &req, AttribComp c, Tick ts)
{
    if (req.attrib != nullptr)
        req.attrib->charge(c, ts);
}

void
AttribRegistry::chargeIcn(ServiceRequest &req,
                          const IcnDeliveryDetail &d, Tick now)
{
    AttribRecord *rec = req.attrib;
    if (rec == nullptr || now <= rec->lastTs)
        return;
    if (!d.valid) {
        rec->charge(AttribComp::IcnOther, now);
        return;
    }
    // Walk the decomposition forward from the checkpoint, clamping
    // at `now`: retransmitted or degraded flights can report more
    // link time than the charged window, and anything the detail
    // does not explain (degraded-delivery penalty, pre-injection
    // gaps) lands in IcnOther.
    rec->charge(AttribComp::IcnQueue,
                std::min(rec->lastTs + d.queued, now));
    for (std::size_t i = 0; i < kIcnLevels; ++i) {
        const auto c = static_cast<AttribComp>(
            static_cast<std::size_t>(AttribComp::IcnAccess) + i);
        rec->charge(c, std::min(rec->lastTs + d.level[i], now));
    }
    rec->charge(AttribComp::IcnOther, now);
}

void
AttribRegistry::notePlacement(ServiceRequest &req)
{
    if (req.attrib != nullptr)
        req.attrib->server = req.server;
}

void
AttribRegistry::noteRetryWait(ServiceRequest &req, Tick first_submit)
{
    AttribRecord *rec = req.attrib;
    if (rec == nullptr || first_submit >= rec->createdAt)
        return;
    rec->startedAt = first_submit;
    rec->comp[static_cast<std::size_t>(AttribComp::RetryBackoff)] +=
        rec->createdAt - first_submit;
}

void
AttribRegistry::noteInterPackageHop(ServiceRequest &req,
                                    Tick client_start, Tick hop_ticks)
{
    AttribRecord *rec = req.attrib;
    if (rec == nullptr || hop_ticks == 0)
        return;
    rec->startedAt = std::min(rec->startedAt, client_start);
    rec->comp[static_cast<std::size_t>(AttribComp::PkgHop)] +=
        hop_ticks;
}

void
AttribRegistry::markRootObserved(ServiceRequest &req, Tick latency)
{
    AttribRecord *rec = req.attrib;
    if (rec == nullptr)
        return;
    rec->observed = true;
    rec->observedLatency = latency;
    const Tick total = rec->total();
    const Tick diff =
        total > latency ? total - latency : latency - total;
    if (diff > 1)
        mismatches_ += 1;
    UMANY_INVARIANT(InvariantChecker::active()->expect(
        diff <= 1,
        "attrib: root %llu ledger sums to %llu ticks but the client "
        "observed %llu",
        static_cast<unsigned long long>(rec->id),
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(latency)));
}

void
AttribRegistry::onDestroy(ServiceRequest &req, Tick now)
{
    AttribRecord *rec = req.attrib;
    if (rec == nullptr)
        return;
    if (!rec->resolved) {
        rec->resolved = true;
        rec->resolvedAt = now;
    }
    req.attrib = nullptr;
    if (rec->parent != 0)
        return; // Children live until their root is destroyed.
    if (rec->observed) {
        // The client-observed latency, not resolvedAt - startedAt:
        // at rack scale the egress hop extends past resolution.
        profiler_->ingest(*rec, rec->observedLatency);
        rootsObserved_ += 1;
    }
    releaseTree(rec);
}

void
AttribRegistry::accumulate(const ServiceRequest &req)
{
    const AttribRecord *rec = req.attrib;
    if (rec == nullptr)
        return;
    for (std::size_t i = 0; i < kNumAttribComps; ++i)
        perReqTicks_[i].add(rec->comp[i]);
    accumulated_ += 1;
}

void
AttribRegistry::releaseTree(AttribRecord *root)
{
    stack_.push_back(root);
    while (!stack_.empty()) {
        AttribRecord *rec = stack_.back();
        stack_.pop_back();
        stack_.insert(stack_.end(), rec->children.begin(),
                      rec->children.end());
        pool_.release(rec);
    }
}

} // namespace umany
