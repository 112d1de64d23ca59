/**
 * @file
 * Static description and runtime state of one directional ICN link.
 */

#ifndef UMANY_NOC_LINK_HH
#define UMANY_NOC_LINK_HH

#include <cstdint>

#include "sim/types.hh"

namespace umany
{

/** Index of a link within its topology. */
using LinkId = std::uint32_t;

/**
 * Static parameters of a directional link.
 *
 * Latency models router traversal + wire delay for one hop; bytes
 * per tick models the link width (serialization occupancy under
 * contention).
 */
struct LinkSpec
{
    NodeId from = 0;
    NodeId to = 0;
    Tick latency = 0;          //!< Propagation + router delay.
    double bytesPerTick = 1.0; //!< Width; 0.032 == 64B/2ns.
    bool access = false;       //!< Endpoint attach link (not an
                               //!< NH-to-NH hop; excluded from hop
                               //!< counts to match the paper).
    std::uint8_t level = 0;    //!< Topology layer for attribution:
                               //!< 0 access/NIC attach, 1 first
                               //!< switch tier, 2 spine/core tier.

    /** Time the wire is occupied serializing @p bytes. */
    Tick serializationTime(std::uint32_t bytes) const;
};
static_assert(sizeof(LinkSpec) == 32, "two links per cache line");

/** Mutable per-link simulation state. */
struct LinkState
{
    Tick busyUntil = 0;            //!< Earliest next departure.
    std::uint64_t messages = 0;    //!< Messages forwarded.
    std::uint64_t bytes = 0;       //!< Bytes forwarded.
    Tick busyTime = 0;             //!< Accumulated occupancy.
    Tick queueDelay = 0;           //!< Accumulated wait-for-link time.
};

} // namespace umany

#endif // UMANY_NOC_LINK_HH
