/**
 * @file
 * Abstract ICN topology: a set of endpoints connected by directional
 * links, with a routing function. Concrete topologies: 2D mesh
 * (ServerClass), fat tree (ScaleOut), hierarchical leaf-spine
 * (μManycore).
 */

#ifndef UMANY_NOC_TOPOLOGY_HH
#define UMANY_NOC_TOPOLOGY_HH

#include <string>
#include <vector>

#include "noc/link.hh"
#include "noc/message.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace umany
{

class FaultState;

/**
 * Base class for on-package topologies.
 *
 * Endpoints are the things machines attach (villages, memory pools,
 * and optionally a package top-level NIC). route() returns the link
 * sequence a message follows; topologies with path diversity (leaf-
 * spine, fat tree with ECMP) consume randomness to pick among equal
 * paths, which is how redundant paths reduce contention.
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    /** Human-readable topology name. */
    virtual std::string name() const = 0;

    /** Number of attachable endpoints. */
    virtual std::size_t endpointCount() const = 0;

    /**
     * Endpoint used for package-external traffic (top-level NIC),
     * or invalidId when the topology has no such endpoint.
     */
    virtual EndpointId externalEndpoint() const { return invalidId; }

    /**
     * Compute the link path from @p src to @p dst.
     *
     * With @p faults non-null, dead links are excluded: topologies
     * with path diversity (leaf-spine ECMP) pick uniformly among the
     * surviving equal-cost paths; deterministic topologies fail when
     * any link on their only path is down. With @p faults null the
     * routing (including the RNG draw sequence) is exactly the
     * healthy-package behavior.
     *
     * @param out Cleared and filled with the LinkIds in order.
     * @return true when a live path exists (possibly empty for
     *         src == dst); false when the pair is partitioned —
     *         @p out is left empty in that case.
     */
    virtual bool route(EndpointId src, EndpointId dst, Rng &rng,
                       std::vector<LinkId> &out,
                       const FaultState *faults = nullptr) const = 0;

    /**
     * Whether any live path connects @p src to @p dst under
     * @p faults. Uses a private RNG so callers' stream positions are
     * unaffected.
     */
    bool hasLivePath(EndpointId src, EndpointId dst,
                     const FaultState *faults) const;

    /** All links in the topology. */
    const std::vector<LinkSpec> &links() const { return links_; }

    /** Hop count between two endpoints (routes once, non-random
     *  topologies are exact; ECMP ones have constant hop counts). */
    std::size_t hopCount(EndpointId src, EndpointId dst) const;

    /**
     * Latency of a @p bytes message with zero contention.
     * Sum over the path of (link latency + serialization).
     */
    Tick contentionFreeLatency(EndpointId src, EndpointId dst,
                               std::uint32_t bytes) const;

    /** Maximum hop count over sampled endpoint pairs (diameter). */
    std::size_t diameter() const;

  protected:
    LinkId addLink(NodeId from, NodeId to, Tick latency,
                   double bytes_per_tick);

    std::vector<LinkSpec> links_;
};

} // namespace umany

#endif // UMANY_NOC_TOPOLOGY_HH
