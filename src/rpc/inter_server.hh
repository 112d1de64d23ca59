/**
 * @file
 * Point-to-point fabric with per-node ingress/egress bandwidth
 * occupancy and a fixed one-way latency. It models the inter-server
 * network (Table 2: 1 μs round trip, 200 GB/s) between a cluster's
 * servers, and the rack fabric between packages and the front-end
 * load balancer (rack/rack_net.hh), which adds a per-end host/NIC
 * overhead.
 */

#ifndef UMANY_RPC_INTER_SERVER_HH
#define UMANY_RPC_INTER_SERVER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace umany
{

/** Fabric parameters (defaults: the inter-server network). */
struct InterServerParams
{
    std::uint32_t numServers = 10;
    Tick oneWayLatency = 500 * tickPerNs; //!< 1 μs round trip.
    double linkGBs = 200.0;               //!< Per-server NIC bandwidth.
    /** Host/NIC processing charged once per message at each end. */
    Tick perEndOverhead = 0;
};

/** Bandwidth-occupied point-to-point fabric. */
class InterServerNet
{
  public:
    explicit InterServerNet(const InterServerParams &p);

    const InterServerParams &params() const { return p_; }

    /**
     * Deliver @p bytes from @p src to @p dst starting at @p now.
     * When @p queue_out is non-null it receives the queueing share
     * of the delivery: total time minus what the same message would
     * take on idle links.
     * @return Delivery tick at the destination (after the receive
     *         end's overhead).
     */
    Tick send(ServerId src, ServerId dst, std::uint32_t bytes,
              Tick now, Tick *queue_out = nullptr);

    std::uint64_t messages() const { return messages_; }
    std::uint64_t bytes() const { return bytes_; }
    /** Link-busy ticks summed over every egress and ingress port. */
    std::uint64_t busyTicks() const { return busyTicks_; }
    /** Occupiable ports (one egress and one ingress per node). */
    std::uint32_t linkCount() const { return 2 * p_.numServers; }

  private:
    InterServerParams p_;
    std::vector<Tick> egressFree_;
    std::vector<Tick> ingressFree_;
    std::uint64_t messages_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t busyTicks_ = 0;
};

} // namespace umany

#endif // UMANY_RPC_INTER_SERVER_HH
