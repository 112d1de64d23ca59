#include "arch/machine.hh"

#include <algorithm>
#include <cmath>

#include "fault/fault_state.hh"
#include "noc/fat_tree.hh"
#include "noc/leaf_spine.hh"
#include "noc/mesh.hh"
#include "obs/attrib.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "validate/invariants.hh"

namespace umany
{

Machine::Machine(std::string name, EventQueue &eq,
                 const MachineParams &p, ServerId self,
                 std::uint64_t seed)
    : SimObject(std::move(name), eq), p_(p), self_(self),
      seed_(seed), rng_(streamSeed(seed, rngstream::coherence)),
      coherence_(p.coherence)
{
    if (p_.numCores == 0 || p_.coresPerVillage == 0 ||
        p_.villagesPerCluster == 0) {
        fatal("machine '%s': structure parameters must be positive",
              p_.name.c_str());
    }
    if (p_.numCores % (p_.coresPerVillage * p_.villagesPerCluster) !=
        0) {
        fatal("machine '%s': %u cores do not divide into %ux%u "
              "villages/clusters",
              p_.name.c_str(), p_.numCores, p_.coresPerVillage,
              p_.villagesPerCluster);
    }
    buildTopology();
    buildStructure();

    // Dispatch-policy setup. Steal and Slo drive the hardware RQ
    // (entry adoption, policy-directed Dequeue); on software-
    // scheduled machines they degrade to round-robin, loudly.
    dkind_ = p_.dispatch.kind;
    if ((dkind_ == DispatchKind::Steal ||
         dkind_ == DispatchKind::Slo) &&
        p_.sched != MachineParams::Sched::HwRq) {
        warn("machine '%s': --dispatch=%s needs the hardware RQ; "
             "falling back to rr",
             p_.name.c_str(), dispatchKindName(dkind_));
        dkind_ = DispatchKind::RoundRobin;
    }
    if (p_.dispatch.probing()) {
        nicPolicy_ = std::make_unique<NicDispatchPolicy>(
            p_.dispatch, streamSeed(seed_, rngstream::dispatch));
    }
    sloBudget_ = fromUs(p_.dispatch.sloBudgetUs);
    sloSlice_ = fromUs(p_.dispatch.sloSliceUs);

    UMANY_INVARIANT({
        InvariantChecker *ic = InvariantChecker::active();
        // Qualified: the ctor's `name` parameter shadows the accessor.
        ic->addAuditor(SimObject::name(), [this](InvariantChecker &c) {
            auditInvariants(c, false);
        });
        ic->addFinalAuditor(SimObject::name(),
                            [this](InvariantChecker &c) {
            auditInvariants(c, true);
        });
    });
}

Machine::~Machine() = default;

std::unique_ptr<Topology>
makeTopology(const MachineParams &p)
{
    const std::uint32_t num_clusters =
        p.numCores / (p.coresPerVillage * p.villagesPerCluster);
    const std::uint32_t epl =
        p.villagesPerCluster + (p.hasMemoryPool ? 1 : 0);
    const Tick hop = cyclesToTicks(
        static_cast<double>(p.hopCycles), p.core.ghz);

    switch (p.topo) {
      case MachineParams::Topo::LeafSpine: {
        LeafSpineParams lp;
        lp.numLeaves = num_clusters;
        lp.podCount = num_clusters >= 32 ? 4
                      : num_clusters >= 16 ? 2 : 1;
        lp.spinesPerPod = 4;
        lp.l3Count = lp.podCount > 1 ? 8 : 0;
        if (lp.podCount == 1)
            lp.l3Count = 1; // Degenerate single-pod config.
        lp.endpointsPerLeaf = epl;
        lp.hopLatency = hop;
        lp.bytesPerTick = p.linkBytesPerTick;
        return std::make_unique<LeafSpine>(lp);
      }
      case MachineParams::Topo::FatTree: {
        FatTreeParams fp;
        fp.numLeaves = num_clusters;
        fp.endpointsPerLeaf = epl;
        fp.hopLatency = hop;
        fp.bytesPerTick = p.linkBytesPerTick;
        return std::make_unique<FatTree>(fp);
      }
      case MachineParams::Topo::Mesh: {
        MeshParams mp;
        mp.width = static_cast<std::uint32_t>(
            std::ceil(std::sqrt(static_cast<double>(num_clusters))));
        mp.height = (num_clusters + mp.width - 1) / mp.width;
        mp.endpointsPerNode = epl;
        mp.hopLatency = hop;
        mp.bytesPerTick = p.linkBytesPerTick;
        return std::make_unique<Mesh2D>(mp);
      }
    }
    panic("unknown topology kind %u",
          static_cast<unsigned>(p.topo));
}

void
Machine::buildTopology()
{
    topo_ = makeTopology(p_);

    net_ = std::make_unique<Network>(
        name() + ".net", eventq(), *topo_,
        streamSeed(seed_, rngstream::network));
    net_->setContention(p_.icnContention);
    net_->setTracePid(self_);
}

void
Machine::buildStructure()
{
    const std::uint32_t num_villages = p_.numCores / p_.coresPerVillage;
    const std::uint32_t num_clusters =
        num_villages / p_.villagesPerCluster;
    const std::uint32_t epl =
        p_.villagesPerCluster + (p_.hasMemoryPool ? 1 : 0);

    // Cores.
    cores_.reserve(p_.numCores);
    for (CoreId c = 0; c < p_.numCores; ++c) {
        const VillageId v = c / p_.coresPerVillage;
        cores_.emplace_back(c, v, v / p_.villagesPerCluster);
    }

    // Villages and clusters.
    NicParams nic = p_.nic;
    nic.ghz = p_.core.ghz;
    HwRqParams rq = p_.rq;
    rq.ghz = p_.core.ghz;

    villages_.reserve(num_villages);
    for (VillageId v = 0; v < num_villages; ++v) {
        const ClusterId cid = v / p_.villagesPerCluster;
        const EndpointId ep =
            cid * epl + (v % p_.villagesPerCluster);
        villages_.emplace_back(v, cid, ep);
        Village &vil = villages_.back();
        for (std::uint32_t k = 0; k < p_.coresPerVillage; ++k)
            vil.cores.push_back(v * p_.coresPerVillage + k);
        vil.nic = std::make_unique<VillageNic>(nic);
        if (p_.sched == MachineParams::Sched::HwRq)
            vil.rq = std::make_unique<HwRq>(rq);
    }

    clusters_.reserve(num_clusters);
    for (ClusterId c = 0; c < num_clusters; ++c) {
        clusters_.emplace_back(Cluster(c));
        Cluster &cl = clusters_.back();
        for (std::uint32_t k = 0; k < p_.villagesPerCluster; ++k)
            cl.villages.push_back(c * p_.villagesPerCluster + k);
        cl.hub = std::make_unique<NetworkHub>(
            strprintf("%s.hub%u", name().c_str(), c));
        if (p_.hasMemoryPool)
            cl.poolEndpoint = c * epl + p_.villagesPerCluster;
    }

    // Software scheduling substrate.
    if (p_.sched == MachineParams::Sched::SwQueue) {
        SwQueueParams sp = p_.swq;
        sp.numQueues = p_.swQueueCount;
        sp.numCores = p_.numCores;
        sp.workStealing = p_.workStealing;
        sp.stealAttempts = p_.stealAttempts;
        sp.ghz = p_.core.ghz;
        swq_ = std::make_unique<SwQueueSystem>(
            sp, streamSeed(seed_, rngstream::swqueue));
        swq_->setTracePid(self_);
    }
    // The centralized software scheduler core exists whenever
    // dispatch or context switching runs in software.
    if (p_.sched == MachineParams::Sched::SwQueue ||
        p_.cs.scheme != CsScheme::HardwareRq) {
        DispatcherParams dp = p_.dispatcher;
        dp.ghz = p_.core.ghz;
        dispatcher_ = std::make_unique<SwDispatcher>(dp);
        dispatcher_->setTracePid(self_);
    }

    TopNicParams tp = p_.topNic;
    tp.ghz = p_.core.ghz;
    tp.hardwareDispatch = p_.sched == MachineParams::Sched::HwRq;
    topNic_ = std::make_unique<TopLevelNic>(tp);
    topNic_->setTracePid(self_);
    rnic_ = std::make_unique<RNicTransport>(
        p_.rnic, streamSeed(seed_, rngstream::rnic));

    // All cores start idle.
    for (CoreId c = 0; c < p_.numCores; ++c)
        markIdle(c);

    stealCursor_.assign(num_villages, 0);
}

void
Machine::setTracePidBase(std::uint32_t base)
{
    // Re-seat every sub-component's trace pid: rack runs give each
    // package a disjoint pid block so one merged trace keeps servers
    // from different packages apart.
    tracePidBase_ = base;
    net_->setTracePid(tracePid());
    if (swq_)
        swq_->setTracePid(tracePid());
    if (dispatcher_)
        dispatcher_->setTracePid(tracePid());
    topNic_->setTracePid(tracePid());
}

VillageId
Machine::villageOfCore(CoreId c) const
{
    return c / p_.coresPerVillage;
}

ClusterId
Machine::clusterOfVillage(VillageId v) const
{
    return v / p_.villagesPerCluster;
}

EndpointId
Machine::villageEndpoint(VillageId v) const
{
    return villages_[v].endpoint;
}

std::uint32_t
Machine::queueOfVillage(VillageId v) const
{
    return swq_->queueOfCore(villages_[v].cores.front());
}

std::size_t
Machine::villageQueueDepth(VillageId v) const
{
    if (p_.sched == MachineParams::Sched::HwRq) {
        return villages_[v].rq->readyCount() +
               villages_[v].rq->bufferedCount();
    }
    return swq_->queueLength(queueOfVillage(v));
}

double
Machine::villagePerfFactor(VillageId v) const
{
    if (p_.bigVillageFraction <= 0.0)
        return 1.0;
    const auto big = static_cast<VillageId>(
        p_.bigVillageFraction * static_cast<double>(villages_.size()));
    return v < big ? p_.bigVillagePerfFactor : 1.0;
}

bool
Machine::sameL2(CoreId a, CoreId b) const
{
    return villageOfCore(a) == villageOfCore(b);
}

void
Machine::installInstance(ServiceId service, VillageId village)
{
    if (village >= villages_.size())
        fatal("installInstance: village %u out of range", village);
    serviceMap_.addInstance(service, village);
    villages_[village].services.push_back(service);
    if (villages_[village].rq)
        villages_[village].rq->registerService(service);
}

VillageId
Machine::pickDispatch(ServiceId service, Tick &probe_delay)
{
    probe_delay = 0;
    if (nicPolicy_ == nullptr)
        return serviceMap_.pick(service);
    // The probe reads total entry occupancy (running + blocked +
    // ready, plus NIC overflow), not just the ready backlog: at
    // moderate load ready counts tie at zero almost everywhere and
    // the probe would degenerate to random placement, which loses
    // to round-robin's even spread. Occupancy discriminates between
    // a village with idle cores and one whose entries are all
    // blocked on children. On a heterogeneous machine the signal is
    // expected drain time, not raw occupancy: (occupancy + the
    // request itself) scaled by the village's perf factor, so a
    // beefy village with the same backlog still probes shallower.
    // The x256 fixed-point scale keeps the key integral without
    // changing the ordering on homogeneous machines.
    const VillageId v = nicPolicy_->pick(
        serviceMap_.villagesOf(service), [this](VillageId c) {
            std::size_t occ;
            if (p_.sched == MachineParams::Sched::HwRq) {
                occ = static_cast<std::size_t>(
                          villages_[c].rq->inFlight()) +
                      villages_[c].rq->bufferedCount();
            } else {
                occ = villageQueueDepth(c);
            }
            return static_cast<std::size_t>(
                static_cast<double>((occ + 1) * 256) *
                villagePerfFactor(c));
        });
    // The NIC spends probeCycles per depth read before the request
    // can leave for its village.
    probe_delay =
        cyc(static_cast<double>(p_.dispatch.probeCycles) *
            static_cast<double>(nicPolicy_->lastProbes().size()));
    return v;
}

std::int64_t
Machine::laxityOf(const ServiceRequest &req) const
{
    const double scale =
        p_.perfFactor * villagePerfFactor(req.village);
    const auto work = static_cast<Tick>(
        static_cast<double>(req.remainingWork()) * scale);
    return static_cast<std::int64_t>(req.createdAt + sloBudget_) -
           static_cast<std::int64_t>(curTick()) -
           static_cast<std::int64_t>(work);
}

ReadyList::KeyFn
Machine::laxityKey() const
{
    return [this](const ServiceRequest &r) { return laxityOf(r); };
}

void
Machine::sendIcn(EndpointId src, EndpointId dst, std::uint32_t bytes,
                 MsgClass cls, Network::DeliverFn fn,
                 Network::DropFn drop)
{
    Message m;
    m.src = src;
    m.dst = dst;
    m.bytes = bytes;
    m.cls = cls;
    net_->send(m, std::move(fn), std::move(drop));
}

FaultState &
Machine::armFaults()
{
    if (!faults_) {
        faults_ = std::make_unique<FaultState>(*topo_);
        net_->setFaultState(faults_.get());
    }
    return *faults_;
}

void
Machine::setVillageUp(VillageId v, bool up)
{
    if (v >= villages_.size())
        fatal("setVillageUp: village %u out of range", v);
    serviceMap_.setVillageUp(v, up);
}

bool
Machine::degradedDispatch() const
{
    return (faults_ != nullptr && faults_->anyLinkDown()) ||
           serviceMap_.villagesDown() > 0;
}

VillageId
Machine::pickReachableVillage(ServiceId service, EndpointId from)
{
    const std::size_t n = serviceMap_.villagesOf(service).size();
    const bool check_path =
        faults_ != nullptr && faults_->anyLinkDown();
    for (std::size_t i = 0; i < n; ++i) {
        const VillageId v = serviceMap_.pickLive(service);
        if (v == invalidId)
            return invalidId;
        if (!check_path ||
            topo_->hasLivePath(from, villageEndpoint(v),
                               faults_.get()))
            return v;
    }
    return invalidId;
}

void
Machine::externalArrival(ServiceRequest *req)
{
    if (!serviceMap_.hasService(req->service()))
        fatal("machine '%s' hosts no instance of service %u",
              p_.name.c_str(), req->service());

    // Wire/egress time getting here plus top-NIC ingress is all
    // dispatch-path work.
    UMANY_ATTRIB(AttribRegistry::active()->charge(
        *req, AttribComp::NicDispatch, curTick()));
    Tick t = topNic_->ingress(curTick(), req->reqBytes);

    const EndpointId ext = topo_->externalEndpoint();
    VillageId v;
    if (degradedDispatch()) {
        // Degraded mode keeps the liveness-aware walk; probing
        // policies re-engage once the machine heals.
        v = pickReachableVillage(req->service(), ext);
        if (v == invalidId) {
            shedRequest(req, t);
            return;
        }
    } else {
        Tick probe_delay = 0;
        v = pickDispatch(req->service(), probe_delay);
        t += probe_delay;
    }
    eventq().schedule(t, EvTag{EvSrc::RpcNic},
                      [this, req, v, ext]() {
        UMANY_ATTRIB(AttribRegistry::active()->charge(
            *req, AttribComp::NicDispatch, curTick()));
        sendIcn(ext, villageEndpoint(v), req->reqBytes,
                MsgClass::Request,
                [this, req, v]() { villageIngress(req, v); });
    });
}

void
Machine::localCall(ServiceRequest *child, VillageId from_village)
{
    VillageId v;
    if (degradedDispatch()) {
        v = pickReachableVillage(child->service(),
                                 villageEndpoint(from_village));
        if (v == invalidId) {
            shedRequest(child, curTick());
            return;
        }
    } else {
        Tick probe_delay = 0;
        v = pickDispatch(child->service(), probe_delay);
        if (probe_delay > 0) {
            // Depth probes delay the child's dispatch; round-robin
            // keeps the zero-delay direct path below.
            eventq().schedule(curTick() + probe_delay,
                              EvTag{EvSrc::RpcNic},
                              [this, child, v, from_village]() {
                UMANY_ATTRIB(AttribRegistry::active()->charge(
                    *child, AttribComp::NicDispatch, curTick()));
                sendIcn(villageEndpoint(from_village),
                        villageEndpoint(v), child->reqBytes,
                        MsgClass::Request,
                        [this, child, v]() {
                    villageIngress(child, v);
                });
            });
            return;
        }
    }
    sendIcn(villageEndpoint(from_village), villageEndpoint(v),
            child->reqBytes, MsgClass::Request,
            [this, child, v]() { villageIngress(child, v); });
}

void
Machine::shedRequest(ServiceRequest *req, Tick ready_at)
{
    ++rejected_;
    ++shedNoPath_;
    req->rejected = true;
    req->state = ReqState::Rejected;
    req->finishedAt = curTick();
    req->server = self_;
    UMANY_INVARIANT(InvariantChecker::active()->onReject(*req));
    UMANY_TRACE(TraceSink::active()->instant(
        curTick(), tracePid(), traceNicTrack, "nic.shed", req->id()));
    // The error response bounces straight from the NIC — the request
    // never crossed the ICN, so the response does not either.
    req->respBytes = 128;
    UMANY_ATTRIB(AttribRegistry::active()->notePlacement(*req));
    if (req->parent == nullptr) {
        const Tick t = ready_at + topNic_->extLatency();
        UMANY_ATTRIB(AttribRegistry::active()->charge(
            *req, AttribComp::NicDispatch, t));
        eventq().schedule(t, EvTag{EvSrc::RpcNic},
                          [this, req]() { onRootComplete(req); });
    } else if (req->parent->server == self_) {
        ServiceRequest *parent = req->parent;
        UMANY_ATTRIB(AttribRegistry::active()->charge(
            *req, AttribComp::NicDispatch, ready_at));
        eventq().schedule(ready_at,
                          EvTag{EvSrc::RpcNic},
                          [this, parent, req]() {
            deliverChildResponse(parent, req);
        });
    } else {
        UMANY_ATTRIB(AttribRegistry::active()->charge(
            *req, AttribComp::NicDispatch, ready_at));
        eventq().schedule(ready_at, EvTag{EvSrc::RpcNic},
                          [this, req]() {
            onRemoteChildFinished(req);
        });
    }
}

void
Machine::villageIngress(ServiceRequest *req, VillageId v)
{
    Village &vil = villages_[v];
    vil.nic->countRx();
    req->village = v;
    req->server = self_;
    UMANY_ATTRIB({
        AttribRegistry *ar = AttribRegistry::active();
        ar->chargeIcn(*req, net_->lastDelivery(), curTick());
        ar->notePlacement(*req);
    });
    req->pendingOverhead += vil.nic->rxCoreCycles();
    if (req->seq == 0)
        req->seq = nextSeq_++;
    Tick t = curTick() + vil.nic->rxLatency();
    // Software machines route every arriving request through the
    // centralized dispatcher before it can be queued (§4.4).
    if (p_.sched == MachineParams::Sched::SwQueue)
        t = dispatcher_->process(t);
    eventq().schedule(t, EvTag{EvSrc::SchedDispatch},
                      [this, req]() { enqueueFresh(req); });
}

void
Machine::enqueueFresh(ServiceRequest *req)
{
    // Village NIC rx + (software) dispatcher routing since ingress.
    UMANY_ATTRIB(AttribRegistry::active()->charge(
        *req, AttribComp::NicDispatch, curTick()));
    UMANY_TRACE(traceReqTransition(curTick(), *req,
                                   ReqState::Queued,
                                   tracePidBase_));
    req->state = ReqState::Queued;
    req->enqueuedAt = curTick();
    UMANY_INVARIANT(InvariantChecker::active()->onEnqueue(*req));
    const VillageId v = req->village;

    if (p_.sched == MachineParams::Sched::HwRq) {
        const RqAdmit res = villages_[v].rq->admit(req->seq, req);
        if (res == RqAdmit::Rejected) {
            rejectRequest(req);
            return;
        }
        if (res == RqAdmit::Admitted)
            tryWakeVillage(v);
        // Buffered requests are promoted on a later Complete.
        return;
    }

    const std::uint32_t q = p_.randomQueueAssignment
                                ? swq_->randomQueue()
                                : queueOfVillage(v);
    req->queueId = q;
    const Tick done = swq_->enqueue(q, req->seq, req, curTick());
    eventq().schedule(done, EvTag{EvSrc::SchedDispatch},
                      [this, q]() { tryWakeQueue(q); });
}

void
Machine::reEnqueue(ServiceRequest *req)
{
    // Dispatcher unblock op (software CS) between Ready and requeue.
    UMANY_ATTRIB(AttribRegistry::active()->charge(
        *req, AttribComp::CtxSwitch, curTick()));
    UMANY_TRACE(traceReqTransition(curTick(), *req,
                                   ReqState::Ready,
                                   tracePidBase_));
    req->state = ReqState::Ready;
    req->enqueuedAt = curTick();
    UMANY_INVARIANT(InvariantChecker::active()->onEnqueue(*req));
    const VillageId v = req->village;

    if (p_.sched == MachineParams::Sched::HwRq) {
        villages_[v].rq->makeReady(req->seq, req);
        tryWakeVillage(v);
        return;
    }
    const std::uint32_t q = req->queueId;
    const Tick done = swq_->enqueue(q, req->seq, req, curTick());
    eventq().schedule(done, EvTag{EvSrc::SchedDispatch},
                      [this, q]() { tryWakeQueue(q); });
}

void
Machine::tryWakeVillage(VillageId v)
{
    const CoreId core = villages_[v].rq->claimIdleCore();
    if (core == invalidId)
        return;
    corePickup(core);
}

void
Machine::tryWakeQueue(std::uint32_t q)
{
    const CoreId core = swq_->claimIdleCore(q);
    if (core == invalidId)
        return;
    corePickup(core);
}

void
Machine::corePickup(CoreId core, bool allow_steal)
{
    Tick done = curTick();
    ServiceRequest *req = nullptr;
    if (p_.sched == MachineParams::Sched::HwRq) {
        HwRq &rq = *villages_[villageOfCore(core)].rq;
        if (dkind_ == DispatchKind::Slo)
            req = rq.dequeueBy(curTick(), done, laxityKey());
        else
            req = rq.dequeue(curTick(), done);
        if (req == nullptr && allow_steal &&
            dkind_ == DispatchKind::Steal) {
            req = trySteal(core, done);
            if (req != nullptr) {
                startRun(core, req, done, /*stolen=*/true);
                return;
            }
            if (done > curTick()) {
                // Every probe failed, but each one still burned
                // stealCycles: the core stays busy until `done`,
                // then re-checks its home RQ once (no second steal
                // walk, so an empty machine quiesces).
                eventq().schedule(
                    done, EvTag{EvSrc::SchedDispatch},
                    [this, core]() { corePickup(core, false); });
                return;
            }
        }
    } else {
        req = swq_->dequeue(core, curTick(), done);
        if (req == nullptr && allow_steal && p_.workStealing &&
            done > curTick()) {
            // Failed steal probes serialized on victim locks until
            // `done`; the core is not idle for that window.
            eventq().schedule(
                done, EvTag{EvSrc::SchedDispatch},
                [this, core]() { corePickup(core, false); });
            return;
        }
    }
    if (req == nullptr) {
        markIdle(core);
        return;
    }
    startRun(core, req, done);
}

ServiceRequest *
Machine::trySteal(CoreId core, Tick &done)
{
    const VillageId home = villageOfCore(core);
    Village &hv = villages_[home];
    // No free entry to adopt the stolen request into: don't probe.
    if (hv.rq->full())
        return nullptr;
    const Cluster &cl = clusters_[clusterOfVillage(home)];
    const auto n = static_cast<std::uint32_t>(cl.villages.size());
    if (n <= 1)
        return nullptr;
    std::uint32_t &cursor = stealCursor_[home];
    const std::uint32_t attempts = std::min(
        p_.dispatch.stealAttempts, n - 1);
    for (std::uint32_t i = 0; i < attempts; ++i) {
        do {
            cursor = (cursor + 1) % n;
        } while (cl.villages[cursor] == home);
        const VillageId victim = cl.villages[cursor];
        done += cyc(static_cast<double>(p_.dispatch.stealCycles));
        ++stealProbes_;
        ServiceRequest *promoted = nullptr;
        ServiceRequest *req =
            villages_[victim].rq->stealYoungest(promoted);
        if (promoted != nullptr) {
            // The freed entry pulled a buffered request in; same
            // handling as the Complete-side promotion.
            promoted->enqueuedAt = curTick();
            promoted->state = ReqState::Queued;
            UMANY_ATTRIB(AttribRegistry::active()->charge(
                *promoted, AttribComp::NicDispatch, curTick()));
            tryWakeVillage(victim);
        }
        if (req != nullptr) {
            hv.rq->adoptStolen(req->service());
            req->village = home;
            ++steals_;
            UMANY_INVARIANT(
                InvariantChecker::active()->onSteal(*req));
            UMANY_TRACE(TraceSink::active()->instant(
                curTick(), tracePid(), traceCoreTrack(core),
                "rq.steal", req->id()));
            return req;
        }
    }
    return nullptr;
}

void
Machine::startRun(CoreId core, ServiceRequest *req, Tick ready_at,
                  bool stolen)
{
    // Policy accounting.
    if (dkind_ != DispatchKind::RoundRobin && !stolen)
        ++directDispatches_;
    cores_[core].beginWork(req, curTick());
    req->queuedTime += curTick() - req->enqueuedAt;
    // The ledger's RQ-wait window is exactly the queuedTime interval;
    // dequeue/restore cost below is context-switch work.
    UMANY_ATTRIB(AttribRegistry::active()->charge(
        *req, AttribComp::RqWait, curTick()));
    UMANY_TRACE(traceReqTransition(curTick(), *req,
                                   ReqState::Running,
                                   tracePidBase_));
    req->state = ReqState::Running;
    UMANY_INVARIANT(InvariantChecker::active()->onDequeue(*req));

    Tick t = ready_at;
    // Context restore (Dequeue uploads state in hardware; software
    // schedulers run the restore path). Preempted requests carry
    // saved context even inside their first segment.
    if (req->segIndex > 0 || req->preemptions > 0) {
        t += p_.cs.restoreTime(p_.core.ghz);
        req->contextSwitches += 1;
        cores_[core].countSwitch();
        UMANY_TRACE(TraceSink::active()->instant(
            curTick(), tracePid(), traceCoreTrack(core),
            "cs.restore", req->id()));
    }
    UMANY_ATTRIB(AttribRegistry::active()->charge(
        *req, AttribComp::CtxSwitch, t));
    // Deferred software overhead (RPC rx processing, unblocks).
    if (req->pendingOverhead > 0) {
        t += cyc(static_cast<double>(req->pendingOverhead));
        req->pendingOverhead = 0;
    }
    UMANY_ATTRIB(AttribRegistry::active()->charge(
        *req, AttribComp::NicDispatch, t));


    // Migration warm-up: resuming on a different core outside the
    // previous L2 domain moves the warm set over the ICN.
    const CoreId last = req->lastCore;
    if (last != invalidId && last != core && !sameL2(last, core)) {
        const std::uint64_t bytes = coherence_.migrationBytes(false);
        if (bytes > 0) {
            const VillageId from = villageOfCore(last);
            const VillageId to = villageOfCore(core);
            eventq().schedule(t, EvTag{EvSrc::MemCoherence},
                              [this, core, req, from, to,
                               bytes]() {
                sendIcn(villageEndpoint(from), villageEndpoint(to),
                        static_cast<std::uint32_t>(bytes),
                        MsgClass::BulkData,
                        [this, core, req]() {
                            runSegment(core, req);
                        });
            });
            return;
        }
    }

    eventq().schedule(t, EvTag{EvSrc::CoreRun},
                      [this, core, req]() {
        runSegment(core, req);
    });
}

void
Machine::runSegment(CoreId core, ServiceRequest *req)
{
    // Migration warm-up arrivals reach here over the ICN; charge the
    // transfer before the segment starts. (Direct schedules arrive
    // with a zero-length window and charge nothing.)
    UMANY_ATTRIB(AttribRegistry::active()->chargeIcn(
        *req, net_->lastDelivery(), curTick()));
    // Slo runs the segment in slices so a more urgent arrival can
    // preempt at the next boundary; everything else executes the
    // whole (remaining) segment. segProgress is 0 outside Slo, so
    // the round-robin arithmetic below is untouched.
    const Tick seg_ref = req->behavior().segments[req->segIndex];
    Tick slice_ref = seg_ref > req->segProgress
                         ? seg_ref - req->segProgress
                         : 0;
    bool sliced = false;
    if (dkind_ == DispatchKind::Slo && sloSlice_ > 0 &&
        slice_ref > sloSlice_) {
        slice_ref = sloSlice_;
        sliced = true;
    }
    double work = static_cast<double>(slice_ref);
    work *= p_.perfFactor * villagePerfFactor(req->village);
    const Tick base = static_cast<Tick>(work);
    if (coherence_.scope() == CoherenceScope::Global)
        work *= 1.0 + p_.dirStallFactor;
    const Tick dur = static_cast<Tick>(work);
    req->runningTime += dur;
    // Split the window into reference execution and the directory
    // stall inflation on top of it.
    UMANY_ATTRIB({
        AttribRegistry *ar = AttribRegistry::active();
        ar->charge(*req, AttribComp::ServiceExec, curTick() + base);
        ar->charge(*req, AttribComp::CoherenceStall,
                   curTick() + dur);
    });
    // The on-core execution window, on the core's own track.
    UMANY_TRACE({
        TraceSink *s = TraceSink::active();
        s->durBegin(curTick(), tracePid(), traceCoreTrack(core),
                    "segment", req->id());
        s->durEnd(curTick() + dur, tracePid(), traceCoreTrack(core),
                  "segment", req->id());
    });

    // Memory-system traffic generated by this segment. Under global
    // coherence, misses indirect through directories spread across
    // the package (uniform-random destination); with village-scoped
    // coherence they are served by the cluster's local memory pool.
    if (p_.dirTrafficBytesPerNs > 0.0 && villages_.size() > 1) {
        const double ns = toNs(dur);
        const std::uint32_t bytes =
            static_cast<std::uint32_t>(std::min<double>(
                ns * p_.dirTrafficBytesPerNs, p_.dirTrafficMaxBytes));
        if (bytes >= 64) {
            EndpointId dst;
            if (coherence_.scope() == CoherenceScope::Global) {
                VillageId dv = static_cast<VillageId>(
                    rng_.below(villages_.size()));
                dst = villageEndpoint(dv);
            } else {
                const Cluster &cl =
                    clusters_[clusterOfVillage(req->village)];
                dst = cl.poolEndpoint != invalidId
                          ? cl.poolEndpoint
                          : villageEndpoint(req->village);
            }
            if (dst != villageEndpoint(req->village)) {
                // Fire-and-forget: droppable on partition (no one
                // waits on coherence traffic).
                sendIcn(villageEndpoint(req->village), dst, bytes,
                        MsgClass::Coherence, []() {}, []() {});
            }
        }
    }

    eventq().scheduleAfter(dur, EvTag{EvSrc::CoreRun},
                           [this, core, req, sliced, slice_ref]() {
        if (sliced) {
            sliceDone(core, req, slice_ref);
        } else {
            req->segProgress = 0;
            segmentDone(core, req);
        }
    });
}

void
Machine::sliceDone(CoreId core, ServiceRequest *req, Tick slice_ref)
{
    req->segProgress += slice_ref;
    req->lastCore = core;
    // Least-laxity preemption: yield only to a strictly more urgent
    // ready entry, so two equal requests never ping-pong.
    std::int64_t best = 0;
    const HwRq &rq = *villages_[req->village].rq;
    if (!rq.minReadyKey(laxityKey(), best) ||
        best >= laxityOf(*req)) {
        runSegment(core, req);
        return;
    }

    ++preempts_;
    req->preemptions += 1;
    req->contextSwitches += 1;
    cores_[core].countSwitch();
    UMANY_TRACE({
        traceReqTransition(curTick(), *req, ReqState::Ready,
                           tracePidBase_);
        TraceSink::active()->instant(curTick(), tracePid(),
                                     traceCoreTrack(core),
                                     "cs.preempt", req->id());
    });
    const Tick t = curTick() + p_.cs.saveTime(p_.core.ghz);
    UMANY_ATTRIB(AttribRegistry::active()->charge(
        *req, AttribComp::CtxSwitch, t));
    req->state = ReqState::Ready;
    req->enqueuedAt = t;
    UMANY_INVARIANT(InvariantChecker::active()->onPreempt(*req));
    eventq().schedule(t, EvTag{EvSrc::CtxSwitch},
                      [this, core, req]() {
        villages_[req->village].rq->makeReady(req->seq, req);
        releaseCore(core);
    });
}

void
Machine::segmentDone(CoreId core, ServiceRequest *req)
{
    req->lastCore = core;
    const VillageId v = req->village;

    if (req->lastSegment()) {
        // Send the response and execute Complete.
        Tick t = curTick() + villages_[v].nic->txCoreTime();
        if (p_.sched == MachineParams::Sched::HwRq)
            t += cyc(static_cast<double>(p_.rq.completeCycles));
        UMANY_ATTRIB(AttribRegistry::active()->charge(
            *req, AttribComp::NicDispatch, t));
        eventq().schedule(t, EvTag{EvSrc::ReqComplete},
                          [this, core, req, v]() {
            finishRequest(req, v);
            releaseCore(core);
        });
        return;
    }

    // Block on the next call group.
    const CallGroup &group = req->behavior().groups[req->segIndex];
    UMANY_TRACE({
        traceReqTransition(curTick(), *req, ReqState::Blocked,
                           tracePidBase_);
        TraceSink::active()->instant(curTick(), tracePid(),
                                     traceCoreTrack(core),
                                     "cs.save", req->id());
    });
    req->state = ReqState::Blocked;
    req->pendingChildren = static_cast<std::uint32_t>(group.size());
    UMANY_INVARIANT(InvariantChecker::active()->onBlock(*req));
    req->blockedGroup = req->segIndex;
    req->segIndex += 1;
    req->contextSwitches += 1;
    cores_[core].countSwitch();

    UMANY_ATTRIB(AttribRegistry::active()->charge(
        *req, AttribComp::CtxSwitch,
        curTick() + p_.cs.saveTime(p_.core.ghz)));
    Tick t = curTick() + p_.cs.saveTime(p_.core.ghz) +
             villages_[v].nic->txCoreTime() *
                 static_cast<Tick>(group.size());
    UMANY_ATTRIB(AttribRegistry::active()->charge(
        *req, AttribComp::NicDispatch, t));
    // Software context switching routes through the centralized
    // scheduler core (§4.4); the worker waits for its ack, so the
    // dispatcher saturates under frequent blocking.
    if (p_.cs.scheme != CsScheme::HardwareRq) {
        t = dispatcher_->process(
            t, p_.dispatcher.opCycles + p_.cs.saveCycles);
        UMANY_ATTRIB(AttribRegistry::active()->charge(
            *req, AttribComp::CtxSwitch, t));
    }
    eventq().schedule(t, EvTag{EvSrc::CtxSwitch},
                      [this, core, req, v]() {
        issueCallGroup(req, v);
        releaseCore(core);
    });
}

void
Machine::issueCallGroup(ServiceRequest *req, VillageId v)
{
    const CallGroup &group =
        req->behavior().groups[req->blockedGroup];
    const Tick blocked_from = curTick();
    req->enqueuedAt = blocked_from; // reused for blocked accounting
    for (const CallStep &call : group) {
        villages_[v].nic->countTx();
        if (call.kind == CallStep::Kind::Storage) {
            // Request leaves via the village R-port, the ICN, and
            // the package top-level NIC. The step is captured by
            // value: the loop variable dies before delivery.
            const CallStep step = call;
            sendIcn(villageEndpoint(v), topo_->externalEndpoint(),
                    step.requestBytes, MsgClass::Request,
                    [this, req, step]() {
                        Tick t = topNic_->egress(curTick(),
                                                 step.requestBytes);
                        t += rnic_->sendPenalty();
                        t += topNic_->extLatency();
                        eventq().schedule(t, EvTag{EvSrc::RpcNic},
                                          [this, req, step]() {
                            onStorageCall(req, step);
                        });
                    });
        } else {
            onServiceCall(req, call);
        }
    }
}

void
Machine::finishRequest(ServiceRequest *req, VillageId v)
{
    UMANY_TRACE(traceReqTransition(curTick(), *req,
                                   ReqState::Finished,
                                   tracePidBase_));
    req->state = ReqState::Finished;
    req->finishedAt = curTick();
    UMANY_INVARIANT(InvariantChecker::active()->onComplete(*req));
    ++completed_;
    villages_[v].nic->countTx();

    if (p_.sched == MachineParams::Sched::HwRq) {
        ServiceRequest *promoted =
            villages_[v].rq->complete(req->service());
        if (promoted != nullptr) {
            promoted->enqueuedAt = curTick();
            promoted->state = ReqState::Queued;
            // Time spent parked in the NIC buffer is dispatch-path
            // backpressure, not RQ wait: the RQ clock starts now.
            UMANY_ATTRIB(AttribRegistry::active()->charge(
                *promoted, AttribComp::NicDispatch, curTick()));
            tryWakeVillage(v);
        }
    }

    if (req->parent == nullptr) {
        // Root: response to the external client.
        sendIcn(villageEndpoint(v), topo_->externalEndpoint(),
                req->respBytes, MsgClass::Response, [this, req]() {
                    UMANY_ATTRIB(AttribRegistry::active()->chargeIcn(
                        *req, net_->lastDelivery(), curTick()));
                    Tick t =
                        topNic_->egress(curTick(), req->respBytes);
                    t += rnic_->sendPenalty() + topNic_->extLatency();
                    UMANY_ATTRIB(AttribRegistry::active()->charge(
                        *req, AttribComp::NicDispatch, t));
                    eventq().schedule(t, EvTag{EvSrc::RpcNic},
                                      [this, req]() {
                        onRootComplete(req);
                    });
                });
    } else if (req->parent->server == self_) {
        // Local parent: response over the ICN.
        ServiceRequest *parent = req->parent;
        sendIcn(villageEndpoint(v), villageEndpoint(parent->village),
                req->respBytes, MsgClass::Response,
                [this, parent, req]() {
                    deliverChildResponse(parent, req);
                });
    } else {
        // Remote parent: response leaves the package.
        sendIcn(villageEndpoint(v), topo_->externalEndpoint(),
                req->respBytes, MsgClass::Response, [this, req]() {
                    UMANY_ATTRIB(AttribRegistry::active()->chargeIcn(
                        *req, net_->lastDelivery(), curTick()));
                    Tick t =
                        topNic_->egress(curTick(), req->respBytes);
                    t += rnic_->sendPenalty();
                    UMANY_ATTRIB(AttribRegistry::active()->charge(
                        *req, AttribComp::NicDispatch, t));
                    eventq().schedule(t, EvTag{EvSrc::RpcNic},
                                      [this, req]() {
                        onRemoteChildFinished(req);
                    });
                });
    }
}

void
Machine::deliverChildResponse(ServiceRequest *parent,
                              ServiceRequest *child)
{
    // Close the child's ledger at response delivery: the transfer
    // back over the ICN is its final charge. (For shed children the
    // window is empty and this is a no-op.)
    UMANY_ATTRIB(AttribRegistry::active()->chargeIcn(
        *child, net_->lastDelivery(), curTick()));
    Village &vil = villages_[parent->village];
    vil.nic->countRx();
    parent->pendingOverhead += vil.nic->rxCoreCycles();
    const Tick t = curTick() + vil.nic->rxLatency();

    if (onChildConsumed)
        onChildConsumed(child);

    if (parent->pendingChildren == 0)
        panic("response for a parent with no pending children");
    parent->pendingChildren -= 1;
    if (parent->pendingChildren == 0) {
        eventq().schedule(
            t, EvTag{EvSrc::ReqComplete},
            [this, parent]() { responseProcessed(parent); });
    }
}

void
Machine::externalResponse(ServiceRequest *parent, std::uint32_t bytes)
{
    const Tick t0 = topNic_->ingress(curTick(), bytes);
    rnic_->onAck();
    eventq().schedule(t0, EvTag{EvSrc::RpcNic},
                      [this, parent, bytes]() {
        sendIcn(topo_->externalEndpoint(),
                villageEndpoint(parent->village), bytes,
                MsgClass::Response, [this, parent]() {
                    Village &vil = villages_[parent->village];
                    vil.nic->countRx();
                    parent->pendingOverhead += vil.nic->rxCoreCycles();
                    const Tick t =
                        curTick() + vil.nic->rxLatency();
                    if (parent->pendingChildren == 0)
                        panic("external response without pending "
                              "children");
                    parent->pendingChildren -= 1;
                    if (parent->pendingChildren == 0) {
                        eventq().schedule(
                            t,
                            EvTag{EvSrc::ReqComplete},
                            [this, parent]() {
                                responseProcessed(parent);
                            });
                    }
                });
    });
}

void
Machine::outboundRequest(ServiceRequest *req, VillageId from,
                         std::function<void()> on_exit)
{
    rnic_->onSend();
    sendIcn(villageEndpoint(from), topo_->externalEndpoint(),
            req->reqBytes, MsgClass::Request,
            [this, req, on_exit = std::move(on_exit)]() {
                UMANY_ATTRIB(AttribRegistry::active()->chargeIcn(
                    *req, net_->lastDelivery(), curTick()));
                Tick t = topNic_->egress(curTick(), req->reqBytes);
                t += rnic_->sendPenalty();
                UMANY_ATTRIB(AttribRegistry::active()->charge(
                    *req, AttribComp::NicDispatch, t));
                eventq().schedule(t, EvTag{EvSrc::RpcNic},
                                  on_exit);
            });
}

void
Machine::responseProcessed(ServiceRequest *parent)
{
    parent->blockedTime += curTick() - parent->enqueuedAt;
    // Exactly the blockedTime interval: the call group was issued at
    // enqueuedAt, which is also where the ledger checkpoint stopped.
    UMANY_ATTRIB(AttribRegistry::active()->charge(
        *parent, AttribComp::BlockedOnChild, curTick()));
    // Unblocking under software context switching is another
    // serialized dispatcher operation (restore-side bookkeeping).
    if (p_.cs.scheme != CsScheme::HardwareRq) {
        const Tick t = dispatcher_->process(
            curTick(), p_.dispatcher.opCycles + p_.cs.restoreCycles);
        eventq().schedule(t,
                          EvTag{EvSrc::CtxSwitch},
                          [this, parent]() { reEnqueue(parent); });
        return;
    }
    reEnqueue(parent);
}

void
Machine::rejectRequest(ServiceRequest *req)
{
    ++rejected_;
    req->rejected = true;
    UMANY_TRACE(traceReqTransition(curTick(), *req,
                                   ReqState::Rejected,
                                   tracePidBase_));
    req->state = ReqState::Rejected;
    req->finishedAt = curTick();
    UMANY_INVARIANT(InvariantChecker::active()->onReject(*req));
    // An error response still flows back so callers never hang; it
    // is small and cheap.
    req->respBytes = 128;
    const VillageId v = req->village;
    if (req->parent == nullptr) {
        sendIcn(villageEndpoint(v), topo_->externalEndpoint(), 128,
                MsgClass::Response, [this, req]() {
                    UMANY_ATTRIB(AttribRegistry::active()->chargeIcn(
                        *req, net_->lastDelivery(), curTick()));
                    const Tick t =
                        topNic_->egress(curTick(), 128) +
                        topNic_->extLatency();
                    UMANY_ATTRIB(AttribRegistry::active()->charge(
                        *req, AttribComp::NicDispatch, t));
                    eventq().schedule(t, EvTag{EvSrc::RpcNic},
                                      [this, req]() {
                        onRootComplete(req);
                    });
                });
    } else if (req->parent->server == self_) {
        ServiceRequest *parent = req->parent;
        sendIcn(villageEndpoint(v), villageEndpoint(parent->village),
                128, MsgClass::Response, [this, parent, req]() {
                    deliverChildResponse(parent, req);
                });
    } else {
        sendIcn(villageEndpoint(v), topo_->externalEndpoint(), 128,
                MsgClass::Response, [this, req]() {
                    UMANY_ATTRIB(AttribRegistry::active()->chargeIcn(
                        *req, net_->lastDelivery(), curTick()));
                    const Tick t = topNic_->egress(curTick(), 128);
                    UMANY_ATTRIB(AttribRegistry::active()->charge(
                        *req, AttribComp::NicDispatch, t));
                    eventq().schedule(t, EvTag{EvSrc::RpcNic},
                                      [this, req]() {
                        onRemoteChildFinished(req);
                    });
                });
    }
}

void
Machine::releaseCore(CoreId core)
{
    cores_[core].endWork(curTick());
    corePickup(core);
}

void
Machine::markIdle(CoreId core)
{
    if (p_.sched == MachineParams::Sched::HwRq)
        villages_[villageOfCore(core)].rq->coreIdle(core);
    else
        swq_->coreIdle(core);
}

double
Machine::dispatcherUtilization() const
{
    return dispatcher_ ? dispatcher_->utilization(curTick()) : 0.0;
}

std::uint64_t
Machine::dispatcherOps() const
{
    return dispatcher_ ? dispatcher_->ops() : 0;
}

std::uint64_t
Machine::contextSwitches() const
{
    std::uint64_t total = 0;
    for (const Core &c : cores_)
        total += c.switches();
    return total;
}

void
Machine::auditInvariants(InvariantChecker &ic, bool final) const
{
    const Tick now = curTick();

    if (p_.sched == MachineParams::Sched::HwRq) {
        for (std::size_t v = 0; v < villages_.size(); ++v) {
            const HwRq &rq = *villages_[v].rq;
            ic.expect(rq.readyCount() <= rq.inFlight(),
                      "%s village %zu: %zu ready entries exceed %u "
                      "in flight",
                      name().c_str(), v, rq.readyCount(),
                      rq.inFlight());
            ic.expect(rq.inFlight() <= rq.params().entries,
                      "%s village %zu: RQ occupancy %u exceeds %u "
                      "entries",
                      name().c_str(), v, rq.inFlight(),
                      rq.params().entries);
            // With work stealing, entries admitted here can finish
            // elsewhere (stealsOut) and vice versa (stealsIn);
            // without it both terms are zero and this reduces to
            // the classic admitted == completes + inFlight.
            ic.expect(rq.admitted() + rq.stealsIn() ==
                          rq.completes() + rq.stealsOut() +
                              rq.inFlight(),
                      "%s village %zu: admission arithmetic broken "
                      "(%llu admitted + %llu stolen in != %llu "
                      "completes + %llu stolen out + %u in flight)",
                      name().c_str(), v,
                      static_cast<unsigned long long>(rq.admitted()),
                      static_cast<unsigned long long>(rq.stealsIn()),
                      static_cast<unsigned long long>(rq.completes()),
                      static_cast<unsigned long long>(
                          rq.stealsOut()),
                      rq.inFlight());
            ic.expect(rq.bufferedCount() <=
                          rq.params().nicBufferEntries,
                      "%s village %zu: NIC buffer overfull (%zu)",
                      name().c_str(), v, rq.bufferedCount());
            for (const CoreId c : rq.idleCores()) {
                ic.expect(!cores_[c].busy(),
                          "%s: idle-registered core %u has Work set",
                          name().c_str(), c);
            }
        }
    } else {
        std::size_t per_queue = 0;
        for (std::uint32_t q = 0; q < swq_->params().numQueues; ++q)
            per_queue += swq_->queueLength(q);
        ic.expect(per_queue == swq_->totalReady(),
                  "%s: per-queue lengths sum to %zu but %zu total "
                  "ready",
                  name().c_str(), per_queue, swq_->totalReady());
        for (CoreId c = 0; c < p_.numCores; ++c) {
            if (swq_->idleRegistered(c)) {
                ic.expect(!cores_[c].busy(),
                          "%s: idle-registered core %u has Work set",
                          name().c_str(), c);
            }
        }
    }

    if (dispatcher_) {
        ic.expect(dispatcher_->busyTime() <= dispatcher_->freeAt(),
                  "%s: dispatcher busy time %llu exceeds its "
                  "serialization frontier %llu",
                  name().c_str(),
                  static_cast<unsigned long long>(
                      dispatcher_->busyTime()),
                  static_cast<unsigned long long>(
                      dispatcher_->freeAt()));
    }

    // Link occupancy can run ahead of the clock only up to the
    // reserved busy-until frontier; at quiescence this degenerates
    // to utilization <= 1.0.
    const auto &links = topo_->links();
    const auto &states = net_->linkStates();
    for (std::size_t i = 0; i < states.size(); ++i) {
        const Tick cap = std::max(now, states[i].busyUntil);
        ic.expect(states[i].busyTime <= cap,
                  "%s link %s: occupancy %llu exceeds bound %llu "
                  "(utilization > 1.0)",
                  name().c_str(), links[i].label.c_str(),
                  static_cast<unsigned long long>(
                      states[i].busyTime),
                  static_cast<unsigned long long>(cap));
    }
    ic.expect(net_->messagesDelivered() + net_->messagesDropped() <=
                  net_->messagesSent(),
              "%s: resolved %llu messages but sent only %llu",
              name().c_str(),
              static_cast<unsigned long long>(
                  net_->messagesDelivered() +
                  net_->messagesDropped()),
              static_cast<unsigned long long>(net_->messagesSent()));

    if (final) {
        ic.expect(net_->messagesSent() ==
                      net_->messagesDelivered() +
                          net_->messagesDropped(),
                  "%s: %llu flights never delivered",
                  name().c_str(),
                  static_cast<unsigned long long>(
                      net_->messagesSent() -
                      net_->messagesDelivered() -
                      net_->messagesDropped()));
        for (CoreId c = 0; c < p_.numCores; ++c) {
            ic.expect(!cores_[c].busy(),
                      "%s: core %u still busy after drain",
                      name().c_str(), c);
        }
    }
}

double
Machine::avgCoreUtilization() const
{
    if (cores_.empty() || curTick() == 0)
        return 0.0;
    double total = 0.0;
    for (const Core &c : cores_)
        total += c.utilization(curTick());
    return total / static_cast<double>(cores_.size());
}

} // namespace umany
