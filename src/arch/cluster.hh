/**
 * @file
 * Cluster: a group of villages and the ICN endpoint of a shared
 * memory pool chiplet (§4.1, Fig 10). The cluster's network hub is a
 * leaf switch of the on-package ICN, which the topology models.
 */

#ifndef UMANY_ARCH_CLUSTER_HH
#define UMANY_ARCH_CLUSTER_HH

#include <vector>

#include "noc/message.hh"
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

    Cluster() = default;
    explicit Cluster(ClusterId cid) : id(cid) {}
};

} // namespace umany

#endif // UMANY_ARCH_CLUSTER_HH
