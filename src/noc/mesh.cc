#include "noc/mesh.hh"

#include "fault/fault_state.hh"
#include "sim/logging.hh"

namespace umany
{

Mesh2D::Mesh2D(const MeshParams &p) : p_(p)
{
    if (p_.width == 0 || p_.height == 0 || p_.endpointsPerNode == 0)
        fatal("mesh dimensions and endpoints must be positive");
    const std::uint32_t n = p_.width * p_.height;
    linkAt_.assign(static_cast<std::size_t>(n) * 4, invalidId);

    auto connect = [&](std::uint32_t from, std::uint32_t to, Dir d) {
        linkAt_[from * 4 + d] =
            addLink(from, to, p_.hopLatency, p_.bytesPerTick);
        links_[linkAt_[from * 4 + d]].level = 1;
    };

    for (std::uint32_t y = 0; y < p_.height; ++y) {
        for (std::uint32_t x = 0; x < p_.width; ++x) {
            const std::uint32_t node = nodeAt(x, y);
            if (x + 1 < p_.width) {
                connect(node, nodeAt(x + 1, y), east);
                connect(nodeAt(x + 1, y), node, west);
            }
            if (y + 1 < p_.height) {
                connect(node, nodeAt(x, y + 1), north);
                connect(nodeAt(x, y + 1), node, south);
            }
        }
    }

    const std::uint32_t eps = n * p_.endpointsPerNode;
    accessUp_.assign(eps, invalidId);
    accessDown_.assign(eps, invalidId);
    for (std::uint32_t ep = 0; ep < eps; ++ep) {
        const std::uint32_t node = ep / p_.endpointsPerNode;
        accessUp_[ep] = addLink(node, node, p_.hopLatency,
                                p_.bytesPerTick);
        links_[accessUp_[ep]].access = true;
        accessDown_[ep] = addLink(node, node, p_.hopLatency,
                                  p_.bytesPerTick);
        links_[accessDown_[ep]].access = true;
    }

    nicUp_ = addLink(0, 0, p_.hopLatency, p_.bytesPerTick);
    links_[nicUp_].access = true;
    nicDown_ = addLink(0, 0, p_.hopLatency, p_.bytesPerTick);
    links_[nicDown_].access = true;
}

std::size_t
Mesh2D::endpointCount() const
{
    return static_cast<std::size_t>(p_.width) * p_.height *
               p_.endpointsPerNode + 1;
}

EndpointId
Mesh2D::externalEndpoint() const
{
    return p_.width * p_.height * p_.endpointsPerNode;
}

std::uint32_t
Mesh2D::nodeAt(std::uint32_t x, std::uint32_t y) const
{
    return y * p_.width + x;
}

std::uint32_t
Mesh2D::nodeOf(EndpointId ep) const
{
    return ep / p_.endpointsPerNode;
}

LinkId
Mesh2D::linkFrom(std::uint32_t node, Dir d) const
{
    const LinkId id = linkAt_[node * 4 + d];
    if (id == invalidId)
        panic("mesh route fell off the grid at node %u", node);
    return id;
}

void
Mesh2D::routerPath(std::uint32_t from, std::uint32_t to,
                   std::vector<LinkId> &out) const
{
    std::uint32_t x = from % p_.width;
    std::uint32_t y = from / p_.width;
    const std::uint32_t dx = to % p_.width;
    const std::uint32_t dy = to / p_.width;

    // Dimension-order (XY) routing: all X movement first, then Y.
    while (x != dx) {
        const Dir d = x < dx ? east : west;
        out.push_back(linkFrom(nodeAt(x, y), d));
        x = x < dx ? x + 1 : x - 1;
    }
    while (y != dy) {
        const Dir d = y < dy ? north : south;
        out.push_back(linkFrom(nodeAt(x, y), d));
        y = y < dy ? y + 1 : y - 1;
    }
}

bool
Mesh2D::route(EndpointId src, EndpointId dst, Rng &,
              std::vector<LinkId> &out,
              const FaultState *faults) const
{
    out.clear();
    if (src >= endpointCount() || dst >= endpointCount())
        panic("mesh endpoint out of range (%u, %u)", src, dst);
    if (src == dst)
        return true;

    const bool src_ext = src == externalEndpoint();
    const bool dst_ext = dst == externalEndpoint();
    const std::uint32_t from = src_ext ? 0 : nodeOf(src);
    const std::uint32_t to = dst_ext ? 0 : nodeOf(dst);

    if (src_ext)
        out.push_back(nicDown_);
    else
        out.push_back(accessUp_[src]);
    routerPath(from, to, out);
    if (dst_ext)
        out.push_back(nicUp_);
    else
        out.push_back(accessDown_[dst]);

    // XY routing is non-adaptive: the single dimension-ordered path
    // either survives intact or the pair is partitioned.
    if (faults != nullptr && faults->anyLinkDown()) {
        for (const LinkId id : out) {
            if (!faults->linkUp(id)) {
                out.clear();
                return false;
            }
        }
    }
    return true;
}

} // namespace umany
