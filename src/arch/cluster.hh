/**
 * @file
 * Cluster: a group of villages, the ICN endpoint of a shared memory
 * pool chiplet, and a network hub that is a leaf of the on-package
 * ICN (§4.1, Fig 10).
 */

#ifndef UMANY_ARCH_CLUSTER_HH
#define UMANY_ARCH_CLUSTER_HH

#include <memory>
#include <vector>

#include "noc/message.hh"
#include "rpc/network_hub.hh"
#include "sim/types.hh"

namespace umany
{

/** One cluster of a machine. */
struct Cluster
{
    ClusterId id = 0;
    std::vector<VillageId> villages;

    /** Pool endpoint on the ICN (invalidId when the machine has no
     *  memory pools, e.g. ServerClass). */
    EndpointId poolEndpoint = invalidId;

    std::unique_ptr<NetworkHub> hub;

    Cluster() = default;
    explicit Cluster(ClusterId cid) : id(cid) {}
};

} // namespace umany

#endif // UMANY_ARCH_CLUSTER_HH
