/**
 * @file
 * Inter-package rack network: the fabric between μManycore packages
 * and the rack's front-end load balancer.
 *
 * Two design points (selectable per run):
 *  - Rdma: RDMA-class commodity rack fabric — microsecond-scale
 *    one-way latency with a per-message host/NIC overhead at each
 *    end (DMA setup, completion handling).
 *  - NanoPu: a nanoPU-style NIC-to-core fast path (PAPERS.md): the
 *    network feeds registers directly, collapsing the per-end
 *    overhead to tens of nanoseconds and shaving the wire path.
 *
 * Both run on the point-to-point fabric of rpc/inter_server.hh:
 * per-node ingress/egress bandwidth occupancy plus a fixed one-way
 * latency, so a hot package's response link saturates before the
 * fabric core does.
 */

#ifndef UMANY_RACK_RACK_NET_HH
#define UMANY_RACK_RACK_NET_HH

#include <cstdint>
#include <string>

#include "rpc/inter_server.hh"

namespace umany
{

/** Which inter-package interconnect design point to model. */
enum class RackNetKind : std::uint8_t
{
    Rdma,   //!< RDMA-class commodity fabric.
    NanoPu, //!< nanoPU-style NIC-to-core fast path.
};

/** Parse "rdma|nanopu" (fatal on anything else). */
RackNetKind parseRackNetKind(const std::string &name);

/** Flag spelling of a rack-network kind. */
const char *rackNetKindName(RackNetKind kind);

/**
 * The calibrated fabric for @p kind (see EXPERIMENTS.md "Rack
 * scale" for the derivation). Nodes 0..packages-1 are the packages;
 * node @p packages is the front-end load balancer.
 */
InterServerParams rackNetParams(RackNetKind kind,
                                std::uint32_t packages);

} // namespace umany

#endif // UMANY_RACK_RACK_NET_HH
