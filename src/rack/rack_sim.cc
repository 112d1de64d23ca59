#include "rack/rack_sim.hh"

#include "obs/trace.hh"
#include "sched/request.hh"
#include "sim/logging.hh"
#include "validate/invariants.hh"

namespace umany
{

namespace
{

/** Root request/response sizes, matching ClusterSim's roots. */
constexpr std::uint32_t kRootReqBytes = 512;
constexpr std::uint32_t kRootRespBytes = 2048;

} // namespace

RackSim::RackSim(EventQueue &eq, const ServiceCatalog &catalog,
                 const std::vector<MachineParams> &machines,
                 const RackSimParams &p)
    : eq_(eq), catalog_(catalog), p_(p)
{
    if (p_.packages == 0)
        fatal("a rack needs at least one package");
    if (machines.empty() ||
        (machines.size() != 1 && machines.size() != p_.packages)) {
        fatal("rack machine params: got %zu entries for %u packages "
              "(want 1 or one per package)",
              machines.size(), p_.packages);
    }
    switch (p_.replica.kind) {
      case DispatchKind::RoundRobin:
        break;
      case DispatchKind::Po2c:
      case DispatchKind::Jsqd:
        policy_ = std::make_unique<NicDispatchPolicy>(
            p_.replica,
            streamSeed(p_.cluster.seed, rngstream::replica));
        break;
      case DispatchKind::Steal:
      case DispatchKind::Slo:
        fatal("replica policy must be rr, po2c, or jsqd (got %s)",
              dispatchKindName(p_.replica.kind));
    }

    const bool racked = p_.packages > 1;
    if (racked) {
        pidStride_ = p_.cluster.numServers;
        rackPid_ = pidStride_ * p_.packages;
    }
    pkgs_.reserve(p_.packages);
    for (std::uint32_t pkg = 0; pkg < p_.packages; ++pkg) {
        ClusterSimParams cp = p_.cluster;
        if (pkg > 0) {
            // Per-package RNG streams and disjoint request-id
            // ranges; package 0 keeps the configured seed and base
            // so a 1-package rack is byte-identical to a bare
            // ClusterSim.
            cp.seed = streamSeed(p_.cluster.seed,
                                 rngstream::package + pkg);
        }
        if (racked) {
            cp.idBase = static_cast<RequestId>(pkg) << 44;
            // Disjoint trace pid block per package; the Chrome
            // exporter names pid p*stride+s "pkgP.serverS".
            cp.tracePidBase = pkg * pidStride_;
        }
        const MachineParams &mp =
            machines.size() == 1 ? machines[0] : machines[pkg];
        pkgs_.push_back(std::make_unique<ClusterSim>(eq_, catalog_,
                                                     mp, cp));
        if (racked) {
            pkgs_[pkg]->onRackRootDone =
                [this, pkg](ServiceRequest *req, std::uint64_t ctx,
                            Tick pkg_latency, bool completed) {
                    return onRootDone(pkg, req, ctx, pkg_latency,
                                      completed);
                };
        }
    }
    net_ = std::make_unique<RackNet>(
        RackNetParams::forKind(p_.net, p_.packages));
    placement_ = std::make_unique<RackPlacement>(
        catalog_, p_.packages, p_.replicas);
    alive_.assign(p_.packages, true);
    inflight_.assign(p_.packages, 0);
    lbDispatches_.assign(p_.packages, 0);
    hopQueueTicks_.resize(p_.packages);
    hopTransitTicks_.resize(p_.packages);

    if (racked) {
        // The LB conserves its dispatch ledger: every routed root
        // resolves exactly once, so no context (and no in-flight
        // count) survives a clean drain.
        UMANY_INVARIANT(InvariantChecker::active()->addFinalAuditor(
            "rack.lb", [this](InvariantChecker &ic) {
                ic.expect(ctxs_.empty(),
                          "%zu rack roots still pending after drain",
                          ctxs_.size());
                std::uint64_t inflight = 0;
                for (const std::uint64_t n : inflight_)
                    inflight += n;
                ic.expect(inflight == 0,
                          "LB counts %llu roots in flight after "
                          "drain",
                          static_cast<unsigned long long>(inflight));
            }));
    }
}

RackSim::~RackSim() = default;

void
RackSim::setRecording(bool on)
{
    recording_ = on;
    for (auto &pkg : pkgs_)
        pkg->setRecording(on);
}

void
RackSim::setQosThreshold(ServiceId endpoint, Tick threshold)
{
    for (auto &pkg : pkgs_)
        pkg->setQosThreshold(endpoint, threshold);
}

void
RackSim::setPackageDown(std::uint32_t pkg, bool down)
{
    if (pkg >= alive_.size())
        fatal("package fault targets package %u of %zu", pkg,
              alive_.size());
    alive_[pkg] = !down;
    if (pkgs_.size() > 1) {
        UMANY_TRACE(TraceSink::active()->instant(
            eq_.now(), rackPid_, traceLbTrack,
            down ? "pkg.down" : "pkg.up", pkg));
    }
}

void
RackSim::submitRoot(ServiceId endpoint)
{
    if (pkgs_.size() == 1) {
        // Rack layer disabled: forward synchronously, no context,
        // no hops — byte-identical to a bare ClusterSim.
        pkgs_[0]->submitRoot(endpoint);
        return;
    }

    const std::vector<std::uint32_t> &placed =
        placement_->packagesFor(endpoint);
    const std::vector<std::uint32_t> *cands = &placed;
    if (p_.failover) {
        candScratch_.clear();
        bool skipped = false;
        for (const std::uint32_t pkg : placed) {
            if (alive_[pkg])
                candScratch_.push_back(pkg);
            else
                skipped = true;
        }
        if (candScratch_.empty()) {
            // Every replica is down: the LB sheds the root at the
            // front door (counted as an observed rejection).
            if (recording_)
                ++lbShedRoots_;
            UMANY_TRACE(TraceSink::active()->instant(
                eq_.now(), rackPid_, traceLbTrack, "lb.shed",
                endpoint));
            return;
        }
        if (skipped && recording_)
            ++failovers_;
        cands = &candScratch_;
    }

    std::uint32_t pkg;
    if (policy_) {
        // po2c/jsqd over the LB's own per-package in-flight counts
        // (the occupancy signal a front-end actually has — it never
        // sees inside a package).
        pkg = policy_->pick(*cands, [this](VillageId v) {
            return static_cast<std::size_t>(inflight_[v]);
        });
    } else {
        pkg = (*cands)[rrCursor_++ % cands->size()];
    }

    ++lbDispatches_[pkg];
    ++inflight_[pkg];
    const Tick now = eq_.now();
    Tick req_queue = 0;
    const Tick arrive = net_->send(net_->lbNode(), pkg,
                                   kRootReqBytes, now, &req_queue);
    const std::uint64_t ctx = nextCtx_++;
    ctxs_.emplace(ctx,
                  PendingRoot{now, arrive, req_queue, pkg, endpoint});
    UMANY_TRACE({
        // The LB's view of the root: one lb.root span covering
        // dispatch to response, a dispatch marker naming the chosen
        // package, and the request-direction stitch into it. The
        // fabric hop shows as its own span so link queueing is
        // visible as span stretch.
        TraceSink *s = TraceSink::active();
        s->spanBegin(now, rackPid_, traceLbTrack, "lb.root", ctx);
        s->instant(now, rackPid_, traceLbTrack, "lb.dispatch", ctx,
                   static_cast<double>(pkg));
        s->flowStart(now, rackPid_, traceLbTrack, "rack.req",
                     traceRackReqFlowBit | ctx);
        s->spanBegin(now, rackPid_, traceFabricTrack, "fabric.req",
                     traceRackReqFlowBit | ctx);
        s->spanEnd(arrive, rackPid_, traceFabricTrack, "fabric.req",
                   traceRackReqFlowBit | ctx);
    });
    eq_.schedule(arrive, EvTag{EvSrc::NetExternal},
                 [this, pkg, endpoint, ctx]() {
        pkgs_[pkg]->submitRoot(endpoint, ctx);
    });
}

ClusterSim::RackRootInfo
RackSim::onRootDone(std::uint32_t pkg, ServiceRequest *req,
                    std::uint64_t ctx, Tick pkg_latency,
                    bool completed)
{
    const auto it = ctxs_.find(ctx);
    if (it == ctxs_.end())
        panic("rack root resolved with unknown context %llu",
              static_cast<unsigned long long>(ctx));
    const PendingRoot pending = it->second;
    ctxs_.erase(it);
    if (pending.pkg != pkg)
        panic("rack root for package %u resolved by package %u",
              pending.pkg, pkg);
    --inflight_[pkg];

    ClusterSim::RackRootInfo info;
    if (req == nullptr) {
        // Recovery give-up: the client timed out; nothing crosses
        // the rack network back.
        UMANY_TRACE({
            TraceSink *s = TraceSink::active();
            s->instant(eq_.now(), rackPid_, traceLbTrack,
                       "lb.giveup", ctx);
            s->spanEnd(eq_.now(), rackPid_, traceLbTrack, "lb.root",
                       ctx);
        });
        return info;
    }
    const Tick now = eq_.now();
    // The response crosses back to the LB (rejections answer too),
    // occupying the package's egress link.
    Tick resp_queue = 0;
    const Tick back = net_->send(pkg, net_->lbNode(), kRootRespBytes,
                                 now, &resp_queue);
    const Tick ingress = pending.submitAt - pending.lbArrival;
    const Tick egress = back - now;
    info.hopTicks = ingress + egress;
    info.latency = pkg_latency + info.hopTicks;
    info.clientStart = pending.lbArrival;
    const Tick hop_queue = pending.reqQueue + resp_queue;
    if (completed && recording_) {
        pkgHopTicks_.add(info.hopTicks);
        hopQueueTicks_[pkg].add(hop_queue);
        hopTransitTicks_[pkg].add(info.hopTicks - hop_queue);
    }
    UMANY_TRACE({
        // Stitch the response back: the arrow leaves the root's
        // final span inside the package and lands on the LB's
        // lb.root span, which closes when the response is home.
        TraceSink *s = TraceSink::active();
        const std::uint32_t src_pid =
            pkg * pidStride_ +
            (req->server == invalidId ? 0 : req->server);
        const std::uint64_t src_tid =
            req->village == invalidId
                ? 0
                : traceVillageTrack(req->village);
        s->flowStart(now, src_pid, src_tid, "rack.resp",
                     traceRackRespFlowBit | ctx);
        s->spanBegin(now, rackPid_, traceFabricTrack, "fabric.resp",
                     traceRackRespFlowBit | ctx);
        s->spanEnd(back, rackPid_, traceFabricTrack, "fabric.resp",
                   traceRackRespFlowBit | ctx);
        s->flowEnd(back, rackPid_, traceLbTrack, "rack.resp",
                   traceRackRespFlowBit | ctx);
        s->spanEnd(back, rackPid_, traceLbTrack, "lb.root", ctx);
    });
    return info;
}

std::uint64_t
RackSim::completedRoots() const
{
    std::uint64_t n = 0;
    for (const auto &pkg : pkgs_)
        n += pkg->completedRoots();
    return n;
}

std::uint64_t
RackSim::rejectedRoots() const
{
    std::uint64_t n = lbShedRoots_;
    for (const auto &pkg : pkgs_)
        n += pkg->rejectedRoots();
    return n;
}

std::uint64_t
RackSim::qosViolations() const
{
    std::uint64_t n = 0;
    for (const auto &pkg : pkgs_)
        n += pkg->qosViolations();
    return n;
}

std::uint64_t
RackSim::observedRoots() const
{
    std::uint64_t n = lbShedRoots_;
    for (const auto &pkg : pkgs_)
        n += pkg->observedRoots();
    return n;
}

std::uint64_t
RackSim::requestsInFlight() const
{
    std::uint64_t n = 0;
    for (const auto &pkg : pkgs_)
        n += pkg->requestsInFlight();
    return n;
}

Histogram
RackSim::allLatency() const
{
    Histogram all;
    for (const auto &pkg : pkgs_)
        all.merge(pkg->allLatency());
    return all;
}

Histogram
RackSim::endpointLatency(ServiceId endpoint) const
{
    Histogram all;
    for (const auto &pkg : pkgs_)
        all.merge(pkg->endpointLatency(endpoint));
    return all;
}

} // namespace umany
