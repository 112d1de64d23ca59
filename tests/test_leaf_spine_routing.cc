/**
 * @file
 * Leaf-spine routing coverage (ISSUE 3 satellite): every village
 * pair routes in at most 4 network hops (access links excluded, as
 * the paper counts), every returned path is a connected walk from
 * src to dst, and the ECMP spine/L3 choices are balanced to within
 * one percentage point over 100k messages.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "noc/leaf_spine.hh"
#include "sim/rng.hh"

namespace umany
{
namespace
{

/** The uManycore-preset fabric: 32 leaves in 4 pods. */
LeafSpineParams
paperFabric()
{
    LeafSpineParams p;
    p.numLeaves = 32;
    p.podCount = 4;
    p.spinesPerPod = 4;
    p.l3Count = 8;
    p.endpointsPerLeaf = 5;
    return p;
}

TEST(LeafSpineRouting, EveryPairWithinFourHops)
{
    const LeafSpine topo(paperFabric());
    const EndpointId eps =
        static_cast<EndpointId>(topo.endpointCount()) - 1;
    for (EndpointId src = 0; src < eps; ++src) {
        for (EndpointId dst = 0; dst < eps; ++dst) {
            if (src == dst)
                continue;
            const std::size_t hops = topo.hopCount(src, dst);
            EXPECT_LE(hops, 4u) << src << "->" << dst;
            // Same leaf: access-only. Same pod: leaf-spine-leaf.
            // Cross-pod: up, across the L3 layer, down.
            const std::uint32_t src_leaf = src / 5;
            const std::uint32_t dst_leaf = dst / 5;
            if (src_leaf == dst_leaf)
                EXPECT_EQ(hops, 0u) << src << "->" << dst;
            else if (src_leaf / 8 == dst_leaf / 8)
                EXPECT_EQ(hops, 2u) << src << "->" << dst;
            else
                EXPECT_EQ(hops, 4u) << src << "->" << dst;
        }
    }
}

TEST(LeafSpineRouting, PathsAreConnectedWalks)
{
    const LeafSpine topo(paperFabric());
    const EndpointId eps =
        static_cast<EndpointId>(topo.endpointCount()) - 1;
    Rng rng(0xabcdef);
    std::vector<LinkId> path;
    for (EndpointId src = 0; src < eps; src += 3) {
        for (EndpointId dst = 0; dst < eps; dst += 7) {
            if (src == dst)
                continue;
            topo.route(src, dst, rng, path);
            ASSERT_FALSE(path.empty());
            for (std::size_t i = 1; i < path.size(); ++i) {
                const LinkSpec &prev = topo.links()[path[i - 1]];
                const LinkSpec &cur = topo.links()[path[i]];
                EXPECT_EQ(prev.to, cur.from)
                    << src << "->" << dst << " hop " << i;
            }
        }
    }
}

TEST(LeafSpineRouting, ExternalEndpointReachesEveryLeafDirectly)
{
    const LeafSpine topo(paperFabric());
    const EndpointId ext = topo.externalEndpoint();
    ASSERT_NE(ext, invalidId);
    for (EndpointId ep = 0; ep < ext; ++ep) {
        // NIC <-> leaf bypasses the spine layer entirely.
        EXPECT_EQ(topo.hopCount(ext, ep), 1u);
        EXPECT_EQ(topo.hopCount(ep, ext), 1u);
    }
}

/** "link <id> (<from>-><to>)": names a link in a failure message. */
std::string
linkName(const Topology &topo, LinkId id)
{
    const LinkSpec &spec = topo.links()[id];
    return "link " + std::to_string(id) + " (" +
           std::to_string(spec.from) + "->" + std::to_string(spec.to) +
           ")";
}

/** Frequencies of the link chosen at @p position of the path. */
std::map<LinkId, std::uint64_t>
linkChoiceCounts(const LeafSpine &topo, EndpointId src,
                 EndpointId dst, std::size_t position, int samples)
{
    Rng rng(0x600d5eed);
    std::vector<LinkId> path;
    std::map<LinkId, std::uint64_t> counts;
    for (int i = 0; i < samples; ++i) {
        topo.route(src, dst, rng, path);
        counts[path.at(position)] += 1;
    }
    return counts;
}

TEST(LeafSpineRouting, IntraPodSpineChoiceBalanced)
{
    const LeafSpine topo(paperFabric());
    constexpr int kSamples = 100000;
    // Endpoints on leaves 0 and 3 (same pod): path is
    // access-up, leaf->spine, spine->leaf, access-down.
    const auto counts =
        linkChoiceCounts(topo, 0, 3 * 5 + 2, 1, kSamples);
    ASSERT_EQ(counts.size(), 4u); // all four pod spines used
    for (const auto &[link, n] : counts) {
        const double share = static_cast<double>(n) / kSamples;
        EXPECT_NEAR(share, 0.25, 0.01)
            << linkName(topo, link);
    }
}

TEST(LeafSpineRouting, CrossPodSpineAndL3ChoicesBalanced)
{
    const LeafSpine topo(paperFabric());
    constexpr int kSamples = 100000;
    // Leaf 0 (pod 0) to leaf 12 (pod 1): 6-link path with ECMP at
    // the up-spine (4 ways), L3 (8 ways), and down-spine (4 ways).
    const EndpointId src = 0, dst = 12 * 5 + 1;

    const auto upSpine = linkChoiceCounts(topo, src, dst, 1, kSamples);
    ASSERT_EQ(upSpine.size(), 4u);
    for (const auto &[link, n] : upSpine) {
        EXPECT_NEAR(static_cast<double>(n) / kSamples, 0.25, 0.01)
            << linkName(topo, link);
    }

    // Position 2 is spine->L3: 4 spines x 8 L3s = 32 equally likely
    // links at 1/32 each.
    const auto acrossL3 =
        linkChoiceCounts(topo, src, dst, 2, kSamples);
    ASSERT_EQ(acrossL3.size(), 32u);
    for (const auto &[link, n] : acrossL3) {
        EXPECT_NEAR(static_cast<double>(n) / kSamples, 1.0 / 32.0,
                    0.01)
            << linkName(topo, link);
    }

    const auto downSpine =
        linkChoiceCounts(topo, src, dst, 3, kSamples);
    // Position 3 is L3->spine into the destination pod: 8 L3s x 4
    // spines = 32 links.
    ASSERT_EQ(downSpine.size(), 32u);
    std::map<NodeId, std::uint64_t> perSpine;
    for (const auto &[link, n] : downSpine)
        perSpine[topo.links()[link].to] += n;
    ASSERT_EQ(perSpine.size(), 4u);
    for (const auto &[spine, n] : perSpine) {
        EXPECT_NEAR(static_cast<double>(n) / kSamples, 0.25, 0.01)
            << "spine node " << spine;
    }
}

TEST(LeafSpineRouting, PathDiversityMatchesStructure)
{
    const LeafSpine topo(paperFabric());
    // Same leaf: 1. Same pod: spinesPerPod. Cross-pod:
    // spines x L3s x spines.
    EXPECT_EQ(topo.pathDiversity(0, 0), 1u);
    EXPECT_EQ(topo.pathDiversity(0, 3), 4u);
    EXPECT_EQ(topo.pathDiversity(0, 12), 4u * 8 * 4);
}

} // namespace
} // namespace umany
