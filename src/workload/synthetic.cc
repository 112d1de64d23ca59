#include "workload/synthetic.hh"

#include "sim/logging.hh"

namespace umany
{

const char *
synthDistName(SynthDist d)
{
    switch (d) {
      case SynthDist::Exponential:
        return "Exp";
      case SynthDist::Lognormal:
        return "Lgn";
      case SynthDist::Bimodal:
        return "Bim";
      case SynthDist::Deterministic:
        return "Det";
    }
    return "?";
}

ServiceCatalog
buildSynthetic(const SyntheticParams &p)
{
    if (p.minCalls > p.maxCalls)
        fatal("synthetic calls range [%u, %u] invalid", p.minCalls,
              p.maxCalls);

    ServiceCatalog cat;
    ServiceSpec s;
    s.name = std::string("Synth") + synthDistName(p.dist);
    s.endpoint = true;
    s.makeBehavior = [p](Rng &rng, Behavior &b) {
        double total_us;
        switch (p.dist) {
          case SynthDist::Exponential:
            total_us = rng.expMean(p.meanUs);
            break;
          case SynthDist::Lognormal:
            total_us = LognormalDist(p.meanUs, p.lognSigma).sample(rng);
            break;
          case SynthDist::Deterministic:
            total_us = p.meanUs;
            break;
          case SynthDist::Bimodal:
          default:
            total_us = rng.chance(p.bimodalShortProb)
                           ? p.bimodalShortUs
                           : p.bimodalLongUs;
            break;
        }
        // Guard against degenerate zero-length segments.
        total_us = std::max(total_us, 0.5);

        const std::uint32_t calls =
            p.minCalls + static_cast<std::uint32_t>(
                rng.below(p.maxCalls - p.minCalls + 1));
        const std::uint32_t segs = calls + 1;
        const Tick per_seg = fromUs(total_us / segs);

        b.segments.assign(segs, per_seg);
        for (std::uint32_t c = 0; c < calls; ++c) {
            CallStep cs;
            cs.kind = CallStep::Kind::Storage;
            cs.requestBytes = 256;
            cs.responseBytes = 512;
            b.addGroup({cs});
        }
    };
    cat.add(std::move(s));
    return cat;
}

ServiceCatalog
buildSyntheticFanout(const FanoutParams &p)
{
    if (p.fanout == 0)
        fatal("fanout must be positive");

    ServiceCatalog cat;

    // Leaves first so their ids exist when the tiers above refer to
    // them. A two-segment body around an optional storage call.
    std::vector<ServiceId> leaves;
    for (std::uint32_t i = 0; i < p.fanout; ++i) {
        ServiceSpec leaf;
        leaf.name = "Leaf" + std::to_string(i);
        leaf.loadWeight = 0.5;
        double us = p.leafUs;
        if (i == p.slowLeaf)
            us *= p.slowFactor;
        const bool storage = p.leafStorage;
        leaf.makeBehavior = [us, storage](Rng &, Behavior &b) {
            if (storage) {
                b.segments = {fromUs(us / 2.0), fromUs(us / 2.0)};
                CallStep cs;
                cs.kind = CallStep::Kind::Storage;
                cs.requestBytes = 256;
                cs.responseBytes = 1024;
                b.addGroup({cs});
            } else {
                b.segments = {fromUs(us)};
            }
        };
        leaves.push_back(cat.add(std::move(leaf)));
    }

    std::vector<ServiceId> mids;
    for (std::uint32_t i = 0; i < p.fanout; ++i) {
        ServiceSpec mid;
        mid.name = "Mid" + std::to_string(i);
        mid.loadWeight = 0.5;
        const ServiceId leaf = leaves[i];
        const double us = p.midUs;
        mid.makeBehavior = [us, leaf](Rng &, Behavior &b) {
            b.segments = {fromUs(us / 2.0), fromUs(us / 2.0)};
            CallStep cs;
            cs.kind = CallStep::Kind::Service;
            cs.callee = leaf;
            b.addGroup({cs});
        };
        mids.push_back(cat.add(std::move(mid)));
    }

    ServiceSpec root;
    root.name = "FanRoot";
    root.endpoint = true;
    const double root_us = p.rootUs;
    root.makeBehavior = [root_us, mids](Rng &, Behavior &b) {
        b.segments = {fromUs(root_us / 2.0), fromUs(root_us / 2.0)};
        for (const ServiceId mid : mids) {
            CallStep cs;
            cs.kind = CallStep::Kind::Service;
            cs.callee = mid;
            b.calls.push_back(cs);
        }
        b.endGroup();
    };
    cat.add(std::move(root));
    return cat;
}

} // namespace umany
