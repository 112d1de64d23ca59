/**
 * @file
 * Hierarchical leaf-spine topology — μManycore's on-package ICN
 * (Section 4.2, Fig 12).
 *
 * Default 1024-core configuration (Section 5): 32 leaf NHs (one per
 * cluster) in 4 pods. Each pod has 8 leaves connected all-to-all to
 * the pod's 4 second-level (spine) NHs. 8 third-level NHs connect to
 * all 16 spines. Longest NH-to-NH path: 4 hops. Every route picks
 * uniformly among the redundant equal-cost paths, which is what
 * spreads same-src/same-dst bursts across links.
 */

#ifndef UMANY_NOC_LEAF_SPINE_HH
#define UMANY_NOC_LEAF_SPINE_HH

#include "noc/topology.hh"

namespace umany
{

/** Parameters for the hierarchical leaf-spine ICN. */
struct LeafSpineParams
{
    std::uint32_t numLeaves = 32;
    std::uint32_t podCount = 4;
    std::uint32_t spinesPerPod = 4;
    std::uint32_t l3Count = 8;
    std::uint32_t endpointsPerLeaf = 5; //!< 4 villages + 1 pool.
    Tick hopLatency = 2500;             //!< 5 cycles @ 2 GHz.
    double bytesPerTick = 0.032;
};

/**
 * Three-level leaf-spine fabric with a top-level NIC endpoint
 * connected directly to every leaf.
 */
class LeafSpine : public Topology
{
  public:
    explicit LeafSpine(const LeafSpineParams &p);

    std::string name() const override { return "leaf-spine"; }
    std::size_t endpointCount() const override;
    EndpointId externalEndpoint() const override;

    bool route(EndpointId src, EndpointId dst, Rng &rng,
               std::vector<LinkId> &out,
               const FaultState *faults = nullptr) const override;

    std::uint32_t podOf(std::uint32_t leaf) const;

    /** Number of distinct NH-to-NH paths between two leaves. */
    std::size_t pathDiversity(std::uint32_t leaf_a,
                              std::uint32_t leaf_b) const;

  private:
    LeafSpineParams p_;
    std::uint32_t leavesPerPod_ = 0;

    // Link lookup tables, all directional.
    std::vector<LinkId> leafToSpine_; //!< [leaf][spineInPod]
    std::vector<LinkId> spineToLeaf_; //!< [leaf][spineInPod]
    std::vector<LinkId> spineToL3_;   //!< [spineGlobal][l3]
    std::vector<LinkId> l3ToSpine_;   //!< [spineGlobal][l3]
    std::vector<LinkId> accessUp_;    //!< [endpoint]
    std::vector<LinkId> accessDown_;  //!< [endpoint]
    std::vector<LinkId> nicToLeaf_;   //!< [leaf]
    std::vector<LinkId> leafToNic_;   //!< [leaf]

    std::uint32_t leafOf(EndpointId ep) const;
};

} // namespace umany

#endif // UMANY_NOC_LEAF_SPINE_HH
