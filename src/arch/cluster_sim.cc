#include "arch/cluster_sim.hh"

#include <algorithm>
#include <cmath>

#include "obs/attrib.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "validate/invariants.hh"

namespace umany
{

Tick
RecoveryParams::backoffDelay(std::uint32_t attempt)
{
    // base * factor^(attempt - 1), saturating at the cap. Purely
    // deterministic: retry schedules replay exactly under one seed.
    double d = static_cast<double>(backoffBase);
    for (std::uint32_t i = 1; i < attempt; ++i) {
        d *= backoffFactor;
        if (d >= static_cast<double>(backoffCap))
            return backoffCap;
    }
    const Tick t = static_cast<Tick>(d);
    return t < backoffCap ? t : backoffCap;
}

ClusterSim::ClusterSim(EventQueue &eq, const ServiceCatalog &catalog,
                       const MachineParams &machine,
                       const ClusterSimParams &p)
    : eq_(eq), catalog_(catalog), p_(p),
      behaviorRng_(streamSeed(p.seed, rngstream::behavior)),
      placeRng_(streamSeed(p.seed, rngstream::placement))
{
    if (p_.numServers == 0)
        fatal("cluster needs at least one server");

    InterServerParams isp = p_.interServer;
    isp.numServers = p_.numServers;
    interServer_ = std::make_unique<InterServerNet>(isp);

    servers_.reserve(p_.numServers);
    for (ServerId s = 0; s < p_.numServers; ++s) {
        servers_.push_back(std::make_unique<Server>(
            eq, s, machine, p_.storage,
            streamSeed(p_.seed, rngstream::server + s)));
        if (p_.tracePidBase != 0)
            servers_[s]->machine().setTracePidBase(p_.tracePidBase);
        wireServer(s);
    }
    placeInstances();
    perEndpoint_.resize(catalog_.size());
    qosThreshold_.assign(catalog_.size(), 0);

    // Roots conserve the request lifecycle: every launched attempt
    // resolves exactly once (response, stale response, or timeout),
    // and no task survives a clean drain.
    UMANY_INVARIANT(InvariantChecker::active()->addFinalAuditor(
        "cluster.tasks", [this](InvariantChecker &ic) {
            ic.expect(tasks_.size() == freeTasks_.size(),
                      "%zu root tasks still open after drain",
                      tasks_.size() - freeTasks_.size());
            ic.expect(attemptsLaunched_ == attemptsResolved_,
                      "attempt leak: %llu launched vs %llu resolved",
                      static_cast<unsigned long long>(
                          attemptsLaunched_),
                      static_cast<unsigned long long>(
                          attemptsResolved_));
        }));
}

ClusterSim::~ClusterSim() = default;

void
ClusterSim::placeInstances()
{
    // Deterministic proportional placement: every service gets at
    // least one instance on every server; remaining villages are
    // apportioned by loadWeight. Services may share villages when
    // villages are scarce (§4.1 allows colocated instances).
    for (auto &srv : servers_) {
        Machine &m = srv->machine();
        const std::uint32_t num_villages = m.numVillages();
        const std::size_t num_services = catalog_.size();

        double total_weight = 0.0;
        for (ServiceId s = 0; s < num_services; ++s)
            total_weight += catalog_.at(s).loadWeight;

        // Instances per service (>= 1 each).
        std::vector<std::uint32_t> count(num_services, 1);
        std::uint32_t assigned =
            static_cast<std::uint32_t>(num_services);
        if (num_villages > assigned) {
            const std::uint32_t spare = num_villages - assigned;
            for (ServiceId s = 0; s < num_services; ++s) {
                const std::uint32_t extra =
                    static_cast<std::uint32_t>(std::floor(
                        catalog_.at(s).loadWeight / total_weight *
                        spare));
                count[s] += extra;
                assigned += extra;
            }
            // Distribute the rounding remainder round-robin.
            ServiceId s = 0;
            while (assigned < num_villages) {
                count[s % num_services] += 1;
                ++assigned;
                ++s;
            }
        }

        // Interleave instances across villages so a cluster hosts a
        // mix of services.
        VillageId v = 0;
        bool placed_any = true;
        std::vector<std::uint32_t> left = count;
        while (placed_any) {
            placed_any = false;
            for (ServiceId s = 0; s < num_services; ++s) {
                if (left[s] == 0)
                    continue;
                left[s] -= 1;
                m.installInstance(s, v % num_villages);
                v += 1;
                placed_any = true;
            }
        }
    }
}

void
ClusterSim::wireServer(ServerId s)
{
    Machine &m = servers_[s]->machine();
    m.onRootComplete = [this](ServiceRequest *req) {
        handleRootComplete(req);
    };
    m.onStorageCall = [this, s](ServiceRequest *parent,
                                const CallStep &step) {
        handleStorageCall(s, parent, step);
    };
    m.onServiceCall = [this, s](ServiceRequest *parent,
                                const CallStep &step) {
        handleServiceCall(s, parent, step);
    };
    m.onRemoteChildFinished = [this, s](ServiceRequest *child) {
        handleRemoteChildFinished(s, child);
    };
    m.onChildConsumed = [this](ServiceRequest *child) {
        destroy(child);
    };
}

ServiceRequest *
ClusterSim::makeRequest(ServiceId service, ServiceRequest *parent)
{
    const RequestId id = p_.idBase + nextId_++;
    ServiceRequest *req = reqPool_.reuse();
    if (req != nullptr) {
        req->reset(id, service);
    } else {
        req = reqPool_.adopt(
            std::make_unique<ServiceRequest>(id, service, Behavior{}));
    }
    catalog_.makeBehavior(service, behaviorRng_,
                          req->mutableBehavior());
    req->parent = parent;
    req->createdAt = eq_.now();
    UMANY_ATTRIB(AttribRegistry::active()->onCreate(*req, eq_.now()));
    return req;
}

void
ClusterSim::destroy(ServiceRequest *req)
{
    // §3.3 accounting: where each service request's lifetime went.
    if (recording_ && !req->rejected &&
        req->state == ReqState::Finished) {
        const double queued = toUs(req->queuedTime);
        const double blocked = toUs(req->blockedTime);
        const double running = toUs(req->runningTime);
        const double total = queued + blocked + running;
        queuedUs_.add(queued);
        blockedUs_.add(blocked);
        runningUs_.add(running);
        if (total > 0.0)
            reqUtil_.add(running / total);
        // Same population as the Summaries above, so the ledger
        // aggregates are 1:1 comparable against §3.3.
        UMANY_ATTRIB(AttribRegistry::active()->accumulate(*req));
    }
    UMANY_INVARIANT(InvariantChecker::active()->onDestroy(*req));
    UMANY_ATTRIB(AttribRegistry::active()->onDestroy(*req, eq_.now()));
    reqPool_.release(req);
}

void
ClusterSim::submitRoot(ServiceId endpoint, const LbRecord &lb)
{
    std::uint32_t slot;
    if (freeTasks_.empty()) {
        slot = static_cast<std::uint32_t>(tasks_.size());
        tasks_.emplace_back();
    } else {
        slot = freeTasks_.back();
        freeTasks_.pop_back();
    }
    RootTask &t = tasks_[slot];
    t.firstSubmit = eq_.now();
    t.lb = lb;
    t.trace = nextTrace_++;
    t.attempt = 0;
    t.endpoint = endpoint;
    launchAttempt(slot);
}

void
ClusterSim::launchAttempt(std::uint32_t slot)
{
    RootTask &t = tasks_[slot];
    t.attempt += 1;
    const std::uint32_t gen = ++t.generation;
    ++attemptsLaunched_;

    ServiceRequest *req = makeRequest(t.endpoint, nullptr);
    req->taskSlot = slot;
    req->rootEndpoint = t.endpoint;
    req->reqBytes = rootReqBytes;
    req->respBytes = rootRespBytes;
    t.inFlight = req;

    // Round-robin over servers; a retry naturally lands on a
    // different server than the attempt that timed out.
    const ServerId target = rrServer_++ % servers_.size();
    t.lastTarget = target;
    UMANY_TRACE({
        traceReqCreated(eq_.now(), *req, target, p_.tracePidBase);
        if (t.lb.ctx != 0 && t.attempt == 1) {
            // Terminate the LB's dispatch arrow on the root's first
            // span inside this package.
            TraceSink::active()->flowEnd(
                eq_.now(), p_.tracePidBase + target, 0, "rack.req",
                traceRackReqFlowBit | t.lb.ctx);
        }
    });
    const Tick arrive =
        eq_.now() +
        servers_[target]->machine().topNic().params().extLatency;
    eq_.schedule(arrive, EvTag{EvSrc::NetExternal},
                 [this, req, target]() {
        servers_[target]->machine().externalArrival(req);
    });

    if (p_.recovery.enabled) {
        // The event queue has no cancel primitive: the deadline
        // carries the generation and no-ops once the attempt
        // resolved.
        eq_.schedule(eq_.now() + RecoveryParams::timeout,
                     EvTag{EvSrc::ClientRetry}, [this, slot, gen]() {
            onAttemptTimeout(slot, gen);
        });
    }
}

void
ClusterSim::onAttemptTimeout(std::uint32_t slot, std::uint32_t gen)
{
    RootTask &t = tasks_[slot];
    if (t.generation != gen)
        return; // The attempt resolved before the deadline.
    if (recording_)
        ++timeouts_;
    UMANY_TRACE(TraceSink::active()->instant(
        eq_.now(), p_.tracePidBase + t.lastTarget, traceClientTrack,
        "recovery.timeout", t.trace));

    // Abandon the in-flight attempt: its eventual response is stale.
    t.inFlight = nullptr;
    if (t.attempt > RecoveryParams::maxRetries) {
        // Retry budget exhausted: the client gives up.
        if (recording_) {
            ++observedRoots_;
            ++rejectedRoots_;
            ++shedRoots_;
        }
        UMANY_TRACE(TraceSink::active()->instant(
            eq_.now(), p_.tracePidBase + t.lastTarget, traceClientTrack,
            "recovery.giveup", t.trace));
        // A rack-routed root still owes the rack its record back (no
        // response ever crosses the rack network on a give-up).
        if (t.lb.ctx != 0 && onRackRootDone)
            onRackRootDone(nullptr, t.lb, t.firstSubmit);
        freeTasks_.push_back(slot);
        return;
    }
    scheduleRetry(slot);
}

void
ClusterSim::scheduleRetry(std::uint32_t slot)
{
    RootTask &t = tasks_[slot];
    if (recording_)
        ++retries_;
    const std::uint32_t gen = ++t.generation;
    const Tick delay = RecoveryParams::backoffDelay(t.attempt);
    UMANY_TRACE(TraceSink::active()->instant(
        eq_.now(), p_.tracePidBase + t.lastTarget, traceClientTrack,
        "recovery.retry", t.trace, static_cast<double>(t.attempt)));
    eq_.schedule(eq_.now() + delay, EvTag{EvSrc::ClientRetry},
                 [this, slot, gen]() {
        if (tasks_[slot].generation == gen)
            launchAttempt(slot);
    });
}

void
ClusterSim::handleRootComplete(ServiceRequest *req)
{
    ++attemptsResolved_;
    const std::uint32_t slot = req->taskSlot;
    RootTask &t = tasks_[slot];
    if (t.inFlight != req) {
        // The client already timed this attempt out; the response
        // arrived too late to matter.
        if (recording_)
            ++staleResponses_;
        destroy(req);
        return;
    }
    t.generation += 1; // Defuses this attempt's pending deadline.
    t.inFlight = nullptr;

    if (req->rejected && p_.recovery.enabled &&
        t.attempt <= RecoveryParams::maxRetries) {
        destroy(req);
        scheduleRetry(slot);
        return;
    }

    // Final word for this root: client-observed latency spans every
    // attempt and backoff wait, from the first submit. For a
    // rack-routed root the rack layer accounts both inter-package
    // hops; adding them makes the latency what the rack's client saw.
    Tick latency = eq_.now() - t.firstSubmit;
    Tick hop = 0;
    if (t.lb.ctx != 0 && onRackRootDone) {
        const Tick rack_hop = onRackRootDone(req, t.lb, t.firstSubmit);
        if (!req->rejected) {
            hop = rack_hop;
            latency += hop;
        }
    }
    if (recording_) {
        ++observedRoots_;
        if (req->rejected) {
            ++rejectedRoots_;
        } else {
            ++completedRoots_;
            perEndpoint_[t.endpoint].add(latency);
            allLatency_.add(latency);
            const Tick threshold = qosThreshold_[t.endpoint];
            if (threshold != 0 && latency > threshold)
                ++qosViolations_;
            UMANY_ATTRIB({
                AttribRegistry *ar = AttribRegistry::active();
                ar->noteRetryWait(*req, t.firstSubmit);
                if (hop != 0)
                    ar->noteInterPackageHop(*req, t.lb.lbArrival,
                                            hop);
                ar->markRootObserved(*req, latency);
            });
        }
    }
    freeTasks_.push_back(slot);
    destroy(req);
}

void
ClusterSim::handleStorageCall(ServerId s, ServiceRequest *parent,
                              const CallStep &step)
{
    // Called when the access reaches the storage tier; completion
    // returns over the external network to the parent's package.
    StorageBackend &storage = servers_[s]->storage();
    const Tick done = storage.request(eq_.now());
    const Tick back =
        done +
        servers_[s]->machine().topNic().params().extLatency;
    const std::uint32_t bytes = step.responseBytes;
    eq_.schedule(back, EvTag{EvSrc::NetExternal},
                 [this, s, parent, bytes]() {
        servers_[s]->machine().externalResponse(parent, bytes);
    });
}

void
ClusterSim::handleServiceCall(ServerId s, ServiceRequest *parent,
                              const CallStep &step)
{
    // Resolve placement: stay local with probability localCallBias
    // (an instance exists on every server by construction).
    ServerId target = s;
    if (servers_.size() > 1 && !placeRng_.chance(p_.localCallBias)) {
        target = static_cast<ServerId>(
            placeRng_.below(servers_.size() - 1));
        if (target >= s)
            ++target;
    }

    ServiceRequest *child = makeRequest(step.callee, parent);
    child->reqBytes = step.requestBytes;
    child->respBytes = step.responseBytes;
    UMANY_TRACE(traceReqCreated(eq_.now(), *child, target,
                                p_.tracePidBase));

    Machine &src = servers_[s]->machine();
    if (target == s) {
        src.localCall(child, parent->village);
        return;
    }

    child->server = target;
    auto on_exit = [this, s, target, child]() {
        const Tick arrive = interServer_->send(
            s, target, child->reqBytes, eq_.now());
        eq_.schedule(arrive, EvTag{EvSrc::NetExternal},
                     [this, target, child]() {
            servers_[target]->machine().externalArrival(child);
        });
    };
    static_assert(Machine::OnExitFn::fitsInline<decltype(on_exit)>(),
                  "a remote call's on_exit must fit inline");
    src.outboundRequest(child, parent->village, std::move(on_exit));
}

void
ClusterSim::handleRemoteChildFinished(ServerId s,
                                      ServiceRequest *child)
{
    ServiceRequest *parent = child->parent;
    const ServerId home = parent->server;
    const std::uint32_t bytes = child->respBytes;
    const Tick arrive =
        interServer_->send(s, home, bytes, eq_.now());
    eq_.schedule(arrive, EvTag{EvSrc::NetExternal},
                 [this, home, parent, bytes]() {
        servers_[home]->machine().externalResponse(parent, bytes);
    });
    destroy(child);
}

void
ClusterSim::setQosThreshold(ServiceId endpoint, Tick threshold)
{
    qosThreshold_[endpoint] = threshold;
}

const Histogram &
ClusterSim::endpointLatency(ServiceId endpoint) const
{
    return perEndpoint_[endpoint];
}

} // namespace umany
