#include "rack/rack_net.hh"

#include "sim/logging.hh"

namespace umany
{

RackNetKind
parseRackNetKind(const std::string &name)
{
    if (name == "rdma")
        return RackNetKind::Rdma;
    if (name == "nanopu")
        return RackNetKind::NanoPu;
    fatal("unknown rack network kind '%s' (rdma|nanopu)",
          name.c_str());
}

const char *
rackNetKindName(RackNetKind kind)
{
    switch (kind) {
      case RackNetKind::Rdma:
        return "rdma";
      case RackNetKind::NanoPu:
        return "nanopu";
    }
    return "?";
}

InterServerParams
rackNetParams(RackNetKind kind, std::uint32_t packages)
{
    InterServerParams p;
    p.numServers = packages + 1;
    switch (kind) {
      case RackNetKind::Rdma:
        // RDMA-class rack fabric: ~1.5 us wire+switch one way plus
        // ~0.5 us of NIC/DMA processing per message end (≈ 4 us
        // round trip), 100 GB/s per-node links.
        p.oneWayLatency = 1500 * tickPerNs;
        p.perEndOverhead = 500 * tickPerNs;
        p.linkGBs = 100.0;
        break;
      case RackNetKind::NanoPu:
        // nanoPU fast path: the NIC feeds the core's register file,
        // so per-end processing collapses to ~35 ns (half the 69 ns
        // wire-to-wire loopback the paper reports) and the wire
        // path keeps only rack propagation + one switch (~600 ns).
        p.oneWayLatency = 600 * tickPerNs;
        p.perEndOverhead = 35 * tickPerNs;
        p.linkGBs = 200.0;
        break;
    }
    return p;
}

} // namespace umany
