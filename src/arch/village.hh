/**
 * @file
 * Village: the basic hardware cache-coherent unit of a μManycore
 * (§4.1) — a set of cores with a shared L2, a hardware Request
 * Queue, and local/remote I/O ports. The baselines reuse the same
 * structure as their L2-sharing domain (with the RQ disabled).
 */

#ifndef UMANY_ARCH_VILLAGE_HH
#define UMANY_ARCH_VILLAGE_HH

#include <memory>
#include <vector>

#include "noc/message.hh"
#include "rpc/nic.hh"
#include "sched/hw_rq.hh"
#include "sim/types.hh"

namespace umany
{

/** One village of a machine. */
struct Village
{
    VillageId id = 0;
    ClusterId cluster = 0;
    std::vector<CoreId> cores;
    EndpointId endpoint = 0; //!< Attachment point on the ICN.

    /** Hardware RQ; null on software-scheduled machines. */
    std::unique_ptr<HwRq> rq;

    /** L/R port cost model (shared; ports differ in transport). */
    std::unique_ptr<VillageNic> nic;

    Village() = default;
    Village(VillageId vid, ClusterId cid, EndpointId ep)
        : id(vid), cluster(cid), endpoint(ep)
    {
    }
};

} // namespace umany

#endif // UMANY_ARCH_VILLAGE_HH
