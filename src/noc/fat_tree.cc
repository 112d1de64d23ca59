#include "noc/fat_tree.hh"

#include <algorithm>

#include "fault/fault_state.hh"
#include "sim/logging.hh"

namespace umany
{

namespace
{

bool
isPowerOfTwo(std::uint32_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

FatTree::FatTree(const FatTreeParams &p) : p_(p)
{
    if (!isPowerOfTwo(p_.numLeaves))
        fatal("fat tree needs a power-of-two leaf count (got %u)",
              p_.numLeaves);
    if (p_.endpointsPerLeaf == 0)
        fatal("fat tree needs at least one endpoint per leaf");

    levels_ = 0;
    for (std::uint32_t n = p_.numLeaves; n > 1; n >>= 1)
        ++levels_;
    numSwitches_ = 2 * p_.numLeaves - 1;

    up_.assign(numSwitches_, invalidId);
    down_.assign(numSwitches_, invalidId);

    // Level-order numbering: leaves first, root last.
    std::uint32_t start = 0;
    std::uint32_t count = p_.numLeaves;
    double bw = p_.bytesPerTick;
    for (std::uint32_t lvl = 0; lvl < levels_; ++lvl) {
        const std::uint32_t parent_start = start + count;
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t node = start + i;
            const std::uint32_t parent = parent_start + i / 2;
            up_[node] = addLink(node, parent, p_.hopLatency, bw);
            links_[up_[node]].level = lvl == 0 ? 1 : 2;
            down_[node] = addLink(parent, node, p_.hopLatency, bw);
            links_[down_[node]].level = lvl == 0 ? 1 : 2;
        }
        start = parent_start;
        count >>= 1;
        bw *= p_.fattening;
    }

    // Endpoint access links: generous width, same hop latency.
    const std::uint32_t eps = p_.numLeaves * p_.endpointsPerLeaf;
    accessUp_.assign(eps, invalidId);
    accessDown_.assign(eps, invalidId);
    for (std::uint32_t ep = 0; ep < eps; ++ep) {
        const std::uint32_t leaf = ep / p_.endpointsPerLeaf;
        accessUp_[ep] = addLink(leaf, leaf, p_.hopLatency,
                                p_.bytesPerTick);
        links_[accessUp_[ep]].access = true;
        accessDown_[ep] = addLink(leaf, leaf, p_.hopLatency,
                                  p_.bytesPerTick);
        links_[accessDown_[ep]].access = true;
    }

    // The package top-level NIC attaches at the root through an
    // edge-width port (1.25 leaf-links wide): unlike the leaf-spine's
    // NIC-per-leaf attachment (Fig 12), all external traffic funnels
    // through this one point — the concentration the paper's ICN
    // comparison exposes.
    const std::uint32_t root = numSwitches_ - 1;
    const double nic_bw = p_.bytesPerTick * 1.25;
    nicUp_ = addLink(root, root, p_.hopLatency, nic_bw);
    links_[nicUp_].access = true;
    nicDown_ = addLink(root, root, p_.hopLatency, nic_bw);
    links_[nicDown_].access = true;
}

std::size_t
FatTree::endpointCount() const
{
    // +1 for the package top-level NIC.
    return static_cast<std::size_t>(p_.numLeaves) *
               p_.endpointsPerLeaf + 1;
}

EndpointId
FatTree::externalEndpoint() const
{
    return p_.numLeaves * p_.endpointsPerLeaf;
}

std::uint32_t
FatTree::leafOf(EndpointId ep) const
{
    return ep / p_.endpointsPerLeaf;
}

std::uint32_t
FatTree::parentOf(std::uint32_t node) const
{
    std::uint32_t start = 0;
    std::uint32_t count = p_.numLeaves;
    while (node >= start + count) {
        start += count;
        count >>= 1;
    }
    return start + count + (node - start) / 2;
}

std::uint32_t
FatTree::levelOf(std::uint32_t node) const
{
    std::uint32_t start = 0;
    std::uint32_t count = p_.numLeaves;
    std::uint32_t lvl = 0;
    while (node >= start + count) {
        start += count;
        count >>= 1;
        ++lvl;
    }
    return lvl;
}

bool
FatTree::route(EndpointId src, EndpointId dst, Rng &,
               std::vector<LinkId> &out,
               const FaultState *faults) const
{
    out.clear();
    if (src >= endpointCount() || dst >= endpointCount())
        panic("fat tree endpoint out of range (%u, %u)", src, dst);
    if (src == dst)
        return true;

    const bool src_ext = src == externalEndpoint();
    const bool dst_ext = dst == externalEndpoint();
    const std::uint32_t root = numSwitches_ - 1;

    std::uint32_t a = src_ext ? root : leafOf(src);
    std::uint32_t b = dst_ext ? root : leafOf(dst);

    if (src_ext)
        out.push_back(nicDown_);
    else
        out.push_back(accessUp_[src]);

    // Climb both sides in lockstep (same level in a complete binary
    // tree) until they meet, recording the up path immediately and
    // the down path in reverse.
    std::vector<LinkId> down_path;
    while (a != b) {
        if (levelOf(a) <= levelOf(b)) {
            out.push_back(up_[a]);
            a = parentOf(a);
        } else {
            down_path.push_back(down_[b]);
            b = parentOf(b);
        }
    }
    out.insert(out.end(), down_path.rbegin(), down_path.rend());

    if (dst_ext)
        out.push_back(nicUp_);
    else
        out.push_back(accessDown_[dst]);

    // The tree has exactly one path per endpoint pair: any dead link
    // on it partitions the pair — the redundancy contrast with the
    // leaf-spine's ECMP that fig_resilience quantifies.
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
