#include "noc/topology.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace umany
{

LinkId
Topology::addLink(NodeId from, NodeId to, Tick latency,
                  double bytes_per_tick)
{
    LinkSpec spec;
    spec.from = from;
    spec.to = to;
    spec.latency = latency;
    spec.bytesPerTick = bytes_per_tick;
    links_.push_back(spec);
    return static_cast<LinkId>(links_.size() - 1);
}

bool
Topology::hasLivePath(EndpointId src, EndpointId dst,
                      const FaultState *faults) const
{
    Rng rng(0x5eedull);
    std::vector<LinkId> path;
    return route(src, dst, rng, path, faults);
}

std::size_t
Topology::hopCount(EndpointId src, EndpointId dst) const
{
    if (src == dst)
        return 0;
    Rng rng(0x5eedull);
    std::vector<LinkId> path;
    route(src, dst, rng, path);
    std::size_t hops = 0;
    for (const LinkId id : path) {
        if (!links_[id].access)
            ++hops;
    }
    return hops;
}

Tick
Topology::contentionFreeLatency(EndpointId src, EndpointId dst,
                                std::uint32_t bytes) const
{
    if (src == dst)
        return 0;
    Rng rng(0x5eedull);
    std::vector<LinkId> path;
    route(src, dst, rng, path);
    // Matches the network's wormhole pipelining: per-hop head
    // latency plus one tail serialization on the final link.
    Tick total = 0;
    for (const LinkId id : path)
        total += links_[id].latency;
    if (!path.empty())
        total += links_[path.back()].serializationTime(bytes);
    return total;
}

std::size_t
Topology::diameter() const
{
    const std::size_t n = endpointCount();
    std::size_t best = 0;
    // Exact for small endpoint counts; strided sampling beyond that.
    const std::size_t stride = n > 64 ? n / 64 : 1;
    for (std::size_t a = 0; a < n; a += stride) {
        for (std::size_t b = 0; b < n; b += stride) {
            if (a == b)
                continue;
            best = std::max(best,
                            hopCount(static_cast<EndpointId>(a),
                                     static_cast<EndpointId>(b)));
        }
    }
    return best;
}

} // namespace umany
