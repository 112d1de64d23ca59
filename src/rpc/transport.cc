#include "rpc/transport.hh"

namespace umany
{

RNicTransport::RNicTransport(const RNicTransportParams &p,
                             std::uint64_t seed)
    : p_(p), rng_(seed)
{
}

Tick
RNicTransport::sendPenalty()
{
    Tick penalty = p_.protocolOverhead;
    for (std::uint32_t attempt = 0; attempt < p_.maxRetries;
         ++attempt) {
        if (!rng_.chance(p_.lossProbability))
            break;
        ++retx_;
        penalty += p_.retransmitTimeout;
    }
    return penalty;
}

} // namespace umany
