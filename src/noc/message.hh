/**
 * @file
 * On-package network message descriptor.
 */

#ifndef UMANY_NOC_MESSAGE_HH
#define UMANY_NOC_MESSAGE_HH

#include <cstdint>

#include "sim/types.hh"

namespace umany
{

/** Endpoint index within a topology (villages, pools, top-level NIC). */
using EndpointId = std::uint32_t;

/** Classes of on-package traffic, for per-class accounting. */
enum class MsgClass : std::uint8_t
{
    Request,     //!< Service request dispatch.
    Response,    //!< RPC response.
    Coherence,   //!< Directory/coherence protocol traffic.
    BulkData,    //!< Cache warm-up data on cross-village migration.
    Control,     //!< Scheduling and bookkeeping messages.
};

/** A message travelling through the on-package ICN. */
struct Message
{
    EndpointId src = 0;
    EndpointId dst = 0;
    std::uint32_t bytes = 64;
    MsgClass cls = MsgClass::Control;
};

} // namespace umany

#endif // UMANY_NOC_MESSAGE_HH
