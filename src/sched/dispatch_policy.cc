#include "sched/dispatch_policy.hh"

#include <algorithm>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace umany
{

DispatchKind
parseDispatchKind(const std::string &name)
{
    if (name == "rr")
        return DispatchKind::RoundRobin;
    if (name == "po2c")
        return DispatchKind::Po2c;
    if (name == "jsqd")
        return DispatchKind::Jsqd;
    if (name == "steal")
        return DispatchKind::Steal;
    fatal("unknown dispatch policy '%s' "
          "(expected rr|po2c|jsqd|steal)",
          name.c_str());
}

const char *
dispatchKindName(DispatchKind kind)
{
    switch (kind) {
      case DispatchKind::RoundRobin:
        return "rr";
      case DispatchKind::Po2c:
        return "po2c";
      case DispatchKind::Jsqd:
        return "jsqd";
      case DispatchKind::Steal:
        return "steal";
    }
    return "?";
}

DispatchPolicyParams
dispatchParamsFromConfig(const Config &cfg,
                         const DispatchPolicyParams &defaults)
{
    DispatchPolicyParams p = defaults;
    p.kind = parseDispatchKind(
        cfg.getString("dispatch", dispatchKindName(p.kind)));
    const std::int64_t probes = cfg.getInt(
        "dispatch_probes", static_cast<std::int64_t>(p.probes));
    if (probes < 1)
        fatal("dispatch_probes must be >= 1 (got %lld)",
              static_cast<long long>(probes));
    p.probes = static_cast<std::uint32_t>(probes);
    p.probeCycles = static_cast<Cycles>(
        cfg.getInt("dispatch_probe_cycles",
                   static_cast<std::int64_t>(p.probeCycles)));
    const std::int64_t att = cfg.getInt(
        "steal_attempts",
        static_cast<std::int64_t>(p.stealAttempts));
    if (att < 1)
        fatal("steal_attempts must be >= 1 (got %lld)",
              static_cast<long long>(att));
    p.stealAttempts = static_cast<std::uint32_t>(att);
    p.stealCycles = static_cast<Cycles>(cfg.getInt(
        "steal_cycles", static_cast<std::int64_t>(p.stealCycles)));
    return p;
}

NicDispatchPolicy::NicDispatchPolicy(const DispatchPolicyParams &p,
                                     std::uint64_t seed)
    : p_(p), rng_(seed)
{
    if (p_.probeCount() == 0)
        fatal("dispatch policy needs at least one probe");
}

VillageId
NicDispatchPolicy::pick(const std::vector<VillageId> &candidates,
                        const DepthFn &depth_of)
{
    if (candidates.empty())
        panic("NIC dispatch pick with no candidate instances");
    const auto n = static_cast<std::uint32_t>(candidates.size());
    const std::uint32_t d = std::min(p_.probeCount(), n);

    // Partial Fisher-Yates over an index scratch array: d distinct
    // candidates, exactly d RNG draws (below(1) still draws, keeping
    // the stream length independent of the tie pattern).
    scratch_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i)
        scratch_[i] = i;
    probes_.clear();
    VillageId best = invalidId;
    std::size_t best_depth = 0;
    for (std::uint32_t i = 0; i < d; ++i) {
        const std::uint32_t j =
            i + static_cast<std::uint32_t>(rng_.below(n - i));
        std::swap(scratch_[i], scratch_[j]);
        const VillageId v = candidates[scratch_[i]];
        const std::size_t depth = depth_of(v);
        probes_.push_back(Probe{v, depth});
        ++probesIssued_;
        if (best == invalidId || depth < best_depth) {
            best = v;
            best_depth = depth;
        }
    }
    return best;
}

} // namespace umany
