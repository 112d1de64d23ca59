#include "noc/leaf_spine.hh"

#include "fault/fault_state.hh"
#include "sim/logging.hh"

namespace umany
{

LeafSpine::LeafSpine(const LeafSpineParams &p) : p_(p)
{
    if (p_.podCount == 0 || p_.numLeaves % p_.podCount != 0)
        fatal("leaf count %u must divide evenly into %u pods",
              p_.numLeaves, p_.podCount);
    if (p_.spinesPerPod == 0 || p_.l3Count == 0 ||
        p_.endpointsPerLeaf == 0) {
        fatal("leaf-spine needs spines, L3 switches, and endpoints");
    }
    leavesPerPod_ = p_.numLeaves / p_.podCount;

    const std::uint32_t num_spines = p_.podCount * p_.spinesPerPod;

    // Node ids (link endpoints only; routing uses the tables).
    auto leafNode = [&](std::uint32_t leaf) { return leaf; };
    auto spineNode = [&](std::uint32_t s) { return p_.numLeaves + s; };
    auto l3Node = [&](std::uint32_t k) {
        return p_.numLeaves + num_spines + k;
    };
    const std::uint32_t nic_node = p_.numLeaves + num_spines + p_.l3Count;

    // Pod-internal all-to-all leaf <-> spine links.
    leafToSpine_.assign(
        static_cast<std::size_t>(p_.numLeaves) * p_.spinesPerPod,
        invalidId);
    spineToLeaf_.assign(leafToSpine_.size(), invalidId);
    for (std::uint32_t leaf = 0; leaf < p_.numLeaves; ++leaf) {
        const std::uint32_t pod = podOf(leaf);
        for (std::uint32_t s = 0; s < p_.spinesPerPod; ++s) {
            const std::uint32_t spine = pod * p_.spinesPerPod + s;
            const std::size_t idx =
                static_cast<std::size_t>(leaf) * p_.spinesPerPod + s;
            leafToSpine_[idx] = addLink(
                leafNode(leaf), spineNode(spine), p_.hopLatency,
                p_.bytesPerTick);
            links_[leafToSpine_[idx]].level = 1;
            spineToLeaf_[idx] = addLink(
                spineNode(spine), leafNode(leaf), p_.hopLatency,
                p_.bytesPerTick);
            links_[spineToLeaf_[idx]].level = 1;
        }
    }

    // All-to-all spine <-> L3 links.
    spineToL3_.assign(
        static_cast<std::size_t>(num_spines) * p_.l3Count, invalidId);
    l3ToSpine_.assign(spineToL3_.size(), invalidId);
    for (std::uint32_t spine = 0; spine < num_spines; ++spine) {
        for (std::uint32_t k = 0; k < p_.l3Count; ++k) {
            const std::size_t idx =
                static_cast<std::size_t>(spine) * p_.l3Count + k;
            spineToL3_[idx] = addLink(
                spineNode(spine), l3Node(k), p_.hopLatency,
                p_.bytesPerTick);
            links_[spineToL3_[idx]].level = 2;
            l3ToSpine_[idx] = addLink(
                l3Node(k), spineNode(spine), p_.hopLatency,
                p_.bytesPerTick);
            links_[l3ToSpine_[idx]].level = 2;
        }
    }

    // Endpoint access links (village/pool local ports to the NH).
    const std::uint32_t eps = p_.numLeaves * p_.endpointsPerLeaf;
    accessUp_.assign(eps, invalidId);
    accessDown_.assign(eps, invalidId);
    for (std::uint32_t ep = 0; ep < eps; ++ep) {
        const std::uint32_t leaf = leafOf(ep);
        accessUp_[ep] = addLink(leafNode(leaf), leafNode(leaf),
                                p_.hopLatency, p_.bytesPerTick);
        links_[accessUp_[ep]].access = true;
        accessDown_[ep] = addLink(leafNode(leaf), leafNode(leaf),
                                  p_.hopLatency, p_.bytesPerTick);
        links_[accessDown_[ep]].access = true;
    }

    // Top-level NIC connects directly to every leaf NH (Fig 12).
    nicToLeaf_.assign(p_.numLeaves, invalidId);
    leafToNic_.assign(p_.numLeaves, invalidId);
    for (std::uint32_t leaf = 0; leaf < p_.numLeaves; ++leaf) {
        nicToLeaf_[leaf] = addLink(nic_node, leafNode(leaf),
                                   p_.hopLatency, p_.bytesPerTick);
        leafToNic_[leaf] = addLink(leafNode(leaf), nic_node,
                                   p_.hopLatency, p_.bytesPerTick);
    }
}

std::size_t
LeafSpine::endpointCount() const
{
    return static_cast<std::size_t>(p_.numLeaves) *
               p_.endpointsPerLeaf + 1;
}

EndpointId
LeafSpine::externalEndpoint() const
{
    return p_.numLeaves * p_.endpointsPerLeaf;
}

std::uint32_t
LeafSpine::podOf(std::uint32_t leaf) const
{
    return leaf / leavesPerPod_;
}

std::uint32_t
LeafSpine::leafOf(EndpointId ep) const
{
    return ep / p_.endpointsPerLeaf;
}

std::size_t
LeafSpine::pathDiversity(std::uint32_t leaf_a, std::uint32_t leaf_b) const
{
    if (leaf_a == leaf_b)
        return 1;
    if (podOf(leaf_a) == podOf(leaf_b))
        return p_.spinesPerPod;
    return static_cast<std::size_t>(p_.spinesPerPod) * p_.l3Count *
           p_.spinesPerPod;
}

bool
LeafSpine::route(EndpointId src, EndpointId dst, Rng &rng,
                 std::vector<LinkId> &out,
                 const FaultState *faults) const
{
    out.clear();
    if (src >= endpointCount() || dst >= endpointCount())
        panic("leaf-spine endpoint out of range (%u, %u)", src, dst);
    if (src == dst)
        return true;

    // Only pay for liveness checks when something is actually down;
    // the healthy path (faults null or all-up) keeps the draw
    // sequence identical to the original ECMP routing.
    const bool faulty = faults != nullptr && faults->anyLinkDown();
    auto live = [&](LinkId id) {
        return !faulty || faults->linkUp(id);
    };

    const bool src_ext = src == externalEndpoint();
    const bool dst_ext = dst == externalEndpoint();

    if (src_ext && dst_ext)
        return true;

    // External traffic goes NIC <-> leaf directly; the NIC-to-leaf
    // attach has no path diversity, so a dead link partitions the
    // leaf from the outside world.
    if (src_ext) {
        const std::uint32_t leaf = leafOf(dst);
        if (!live(nicToLeaf_[leaf]) || !live(accessDown_[dst]))
            return false;
        out.push_back(nicToLeaf_[leaf]);
        out.push_back(accessDown_[dst]);
        return true;
    }
    if (dst_ext) {
        const std::uint32_t leaf = leafOf(src);
        if (!live(accessUp_[src]) || !live(leafToNic_[leaf]))
            return false;
        out.push_back(accessUp_[src]);
        out.push_back(leafToNic_[leaf]);
        return true;
    }

    const std::uint32_t src_leaf = leafOf(src);
    const std::uint32_t dst_leaf = leafOf(dst);

    if (!live(accessUp_[src]) || !live(accessDown_[dst]))
        return false;

    out.push_back(accessUp_[src]);
    if (src_leaf == dst_leaf) {
        out.push_back(accessDown_[dst]);
        return true;
    }

    const std::uint32_t src_pod = podOf(src_leaf);
    const std::uint32_t dst_pod = podOf(dst_leaf);
    auto spineIdx = [&](std::uint32_t leaf, std::uint32_t s) {
        return static_cast<std::size_t>(leaf) * p_.spinesPerPod + s;
    };

    if (src_pod == dst_pod) {
        // Two NH hops via a pod spine (ECMP). Under faults, pick
        // uniformly among the spines whose both legs survive.
        std::uint32_t s;
        if (!faulty) {
            s = static_cast<std::uint32_t>(
                rng.below(p_.spinesPerPod));
        } else {
            std::vector<std::uint32_t> cand;
            for (std::uint32_t i = 0; i < p_.spinesPerPod; ++i) {
                if (live(leafToSpine_[spineIdx(src_leaf, i)]) &&
                    live(spineToLeaf_[spineIdx(dst_leaf, i)]))
                    cand.push_back(i);
            }
            if (cand.empty()) {
                out.clear();
                return false;
            }
            s = cand[rng.below(cand.size())];
        }
        out.push_back(leafToSpine_[spineIdx(src_leaf, s)]);
        out.push_back(spineToLeaf_[spineIdx(dst_leaf, s)]);
    } else {
        // Four NH hops: up to a spine, across an L3, down via a
        // spine in the destination pod. Under faults, enumerate the
        // (s_up, l3, s_dn) combinations whose four fabric links all
        // survive and pick uniformly (at the paper's scale that is
        // at most 4*8*4 = 128 candidates).
        std::uint32_t s_up, l3, s_dn;
        if (!faulty) {
            s_up = static_cast<std::uint32_t>(
                rng.below(p_.spinesPerPod));
            l3 = static_cast<std::uint32_t>(rng.below(p_.l3Count));
            s_dn = static_cast<std::uint32_t>(
                rng.below(p_.spinesPerPod));
        } else {
            struct Combo
            {
                std::uint32_t up, mid, dn;
            };
            std::vector<Combo> cand;
            for (std::uint32_t u = 0; u < p_.spinesPerPod; ++u) {
                const std::uint32_t su = src_pod * p_.spinesPerPod + u;
                if (!live(leafToSpine_[spineIdx(src_leaf, u)]))
                    continue;
                for (std::uint32_t k = 0; k < p_.l3Count; ++k) {
                    if (!live(spineToL3_[static_cast<std::size_t>(su) *
                                             p_.l3Count + k]))
                        continue;
                    for (std::uint32_t d = 0; d < p_.spinesPerPod;
                         ++d) {
                        const std::uint32_t sd =
                            dst_pod * p_.spinesPerPod + d;
                        if (!live(l3ToSpine_
                                      [static_cast<std::size_t>(sd) *
                                           p_.l3Count + k]) ||
                            !live(spineToLeaf_[spineIdx(dst_leaf, d)]))
                            continue;
                        cand.push_back({u, k, d});
                    }
                }
            }
            if (cand.empty()) {
                out.clear();
                return false;
            }
            const Combo &c = cand[rng.below(cand.size())];
            s_up = c.up;
            l3 = c.mid;
            s_dn = c.dn;
        }
        const std::uint32_t spine_up = src_pod * p_.spinesPerPod + s_up;
        const std::uint32_t spine_dn = dst_pod * p_.spinesPerPod + s_dn;
        out.push_back(leafToSpine_[spineIdx(src_leaf, s_up)]);
        out.push_back(
            spineToL3_[static_cast<std::size_t>(spine_up) * p_.l3Count +
                       l3]);
        out.push_back(
            l3ToSpine_[static_cast<std::size_t>(spine_dn) * p_.l3Count +
                       l3]);
        out.push_back(spineToLeaf_[spineIdx(dst_leaf, s_dn)]);
    }
    out.push_back(accessDown_[dst]);
    return true;
}

} // namespace umany
