/**
 * @file
 * Transport models (§4.1): the L-NIC runs on the lossless
 * back-pressured on-package network and needs no retransmission or
 * congestion control; the R-NIC talks to the lossy external network
 * and pays for reliability: per-message protocol overhead and rare
 * retransmission timeouts.
 */

#ifndef UMANY_RPC_TRANSPORT_HH
#define UMANY_RPC_TRANSPORT_HH

#include <cstdint>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace umany
{

/** R-NIC (lossy) transport parameters. */
struct RNicTransportParams
{
    Tick protocolOverhead = 120 * tickPerNs; //!< Hdrs, acks, timers.
    double lossProbability = 5e-4;
    Tick retransmitTimeout = 25 * tickPerUs;
    std::uint32_t maxRetries = 3;
};

/** Lossy-transport latency model. */
class RNicTransport
{
  public:
    RNicTransport(const RNicTransportParams &p, std::uint64_t seed);

    /**
     * Per-message transport penalty: protocol overhead plus sampled
     * retransmission delays.
     */
    Tick sendPenalty();

    std::uint64_t retransmissions() const { return retx_; }

  private:
    RNicTransportParams p_;
    Rng rng_;
    std::uint64_t retx_ = 0;
};

} // namespace umany

#endif // UMANY_RPC_TRANSPORT_HH
