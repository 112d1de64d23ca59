#include "rack/rack_sim.hh"

#include "obs/trace.hh"
#include "sched/request.hh"
#include "sim/logging.hh"
#include "validate/invariants.hh"

namespace umany
{

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
                [this, pkg](ServiceRequest *req,
                            const LbRecord &lb,
                            Tick first_submit) {
                    return onRootDone(pkg, req, lb, first_submit);
                };
        }
    }
    alive_.assign(p_.packages, true);
    inflight_.assign(p_.packages, 0);
    lbDispatches_.assign(p_.packages, 0);

    if (racked) {
        sub_ = std::make_unique<Substrate>(Substrate{
            InterServerNet(rackNetParams(p_.net, p_.packages)),
            RackPlacement(catalog_, p_.packages, p_.replicas),
            Histogram(), std::vector<Histogram>(p_.packages),
            std::vector<Histogram>(p_.packages)});
        // The LB conserves its dispatch ledger: every routed root
        // resolves exactly once, so no in-flight count survives a
        // clean drain.
        UMANY_INVARIANT(InvariantChecker::active()->addFinalAuditor(
            "rack.lb", [this](InvariantChecker &ic) {
                ic.expect(pendingRoots() == 0,
                          "LB counts %llu roots in flight after "
                          "drain",
                          static_cast<unsigned long long>(
                              pendingRoots()));
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
        // Rack layer disabled: forward synchronously, no LB record,
        // no hops — byte-identical to a bare ClusterSim.
        pkgs_[0]->submitRoot(endpoint);
        return;
    }

    const std::vector<std::uint32_t> &placed =
        sub_->placement.packagesFor(endpoint);
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
    LbRecord lb;
    lb.ctx = nextCtx_++;
    lb.lbArrival = now;
    const Tick arrive =
        sub_->net.send(p_.packages, pkg, ClusterSim::rootReqBytes, now,
                       &lb.reqQueue);
    UMANY_TRACE({
        // The LB's view of the root: one lb.root span covering
        // dispatch to response, a dispatch marker naming the chosen
        // package, and the request-direction stitch into it. The
        // fabric hop shows as its own span so link queueing is
        // visible as span stretch.
        TraceSink *s = TraceSink::active();
        s->spanBegin(now, rackPid_, traceLbTrack, "lb.root", lb.ctx);
        s->instant(now, rackPid_, traceLbTrack, "lb.dispatch", lb.ctx,
                   static_cast<double>(pkg));
        s->flowStart(now, rackPid_, traceLbTrack, "rack.req",
                     traceRackReqFlowBit | lb.ctx);
        s->spanBegin(now, rackPid_, traceFabricTrack, "fabric.req",
                     traceRackReqFlowBit | lb.ctx);
        s->spanEnd(arrive, rackPid_, traceFabricTrack, "fabric.req",
                   traceRackReqFlowBit | lb.ctx);
    });
    // The record rides with the root into its package.
    auto enter = [this, pkg, endpoint, lb]() {
        pkgs_[pkg]->submitRoot(endpoint, lb);
    };
    static_assert(EventQueue::Callback::fitsInline<decltype(enter)>(),
                  "a root's package entry must fit inline");
    eq_.schedule(arrive, EvTag{EvSrc::NetExternal}, std::move(enter));
}

Tick
RackSim::onRootDone(std::uint32_t pkg, ServiceRequest *req,
                    const LbRecord &lb, Tick first_submit)
{
    const std::uint64_t ctx = lb.ctx;
    if (inflight_[pkg] == 0)
        panic("rack root %llu resolved by package %u, which has no "
              "root in flight",
              static_cast<unsigned long long>(ctx), pkg);
    --inflight_[pkg];

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
        return 0;
    }
    const Tick now = eq_.now();
    // The response crosses back to the LB (rejections answer too),
    // occupying the package's egress link.
    Tick resp_queue = 0;
    const Tick back = sub_->net.send(
        pkg, p_.packages, ClusterSim::rootRespBytes, now, &resp_queue);
    const Tick ingress = first_submit - lb.lbArrival;
    const Tick egress = back - now;
    const Tick hop = ingress + egress;
    const Tick hop_queue = lb.reqQueue + resp_queue;
    if (!req->rejected && recording_) {
        sub_->pkgHopTicks.add(hop);
        sub_->hopQueueTicks[pkg].add(hop_queue);
        sub_->hopTransitTicks[pkg].add(hop - hop_queue);
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
    return hop;
}

std::uint64_t
RackSim::pendingRoots() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t pending : inflight_)
        n += pending;
    return n;
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
