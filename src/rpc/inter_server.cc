#include "rpc/inter_server.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace umany
{

InterServerNet::InterServerNet(const InterServerParams &p) : p_(p)
{
    if (p_.numServers == 0)
        fatal("inter-server net needs at least one server");
    egressFree_.assign(p_.numServers, 0);
    ingressFree_.assign(p_.numServers, 0);
}

Tick
InterServerNet::send(ServerId src, ServerId dst, std::uint32_t nbytes,
                     Tick now, Tick *queue_out)
{
    if (src >= p_.numServers || dst >= p_.numServers)
        panic("inter-server send %u -> %u out of range", src, dst);
    ++messages_;
    bytes_ += nbytes;

    const Tick ser = fromNs(static_cast<double>(nbytes) / p_.linkGBs);
    // Send-side overhead, then egress occupancy at the source.
    const Tick tx_start =
        std::max(now + p_.perEndOverhead, egressFree_[src]);
    egressFree_[src] = tx_start + ser;
    // Propagation.
    const Tick arrive = tx_start + ser + p_.oneWayLatency;
    // Ingress occupancy at the destination, then its overhead.
    const Tick rx_done = std::max(arrive, ingressFree_[dst]) + ser;
    ingressFree_[dst] = rx_done;
    // The message holds one egress and one ingress port for a
    // serialization time each.
    busyTicks_ += 2 * ser;
    const Tick done = rx_done + p_.perEndOverhead;
    if (queue_out != nullptr) {
        // Idle links: both overheads, both serializations and the
        // propagation. Everything above that is queueing.
        const Tick unloaded =
            2 * p_.perEndOverhead + 2 * ser + p_.oneWayLatency;
        *queue_out = done - now - unloaded;
    }
    return done;
}

} // namespace umany
