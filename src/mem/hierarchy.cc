#include "mem/hierarchy.hh"

namespace umany
{

HierarchyParams
serverClassHierarchyParams()
{
    HierarchyParams p;
    p.l1i = CacheParams{"l1i", 64 * 1024, 8, 64, 2};
    p.l1d = CacheParams{"l1d", 64 * 1024, 8, 64, 2};
    p.l2 = CacheParams{"l2", 2 * 1024 * 1024, 16, 64, 16};
    p.l3 = CacheParams{"l3", 2 * 1024 * 1024, 16, 64, 40};
    p.l1itlb = TlbParams{"itlb", 256, 4, 4096, 2};
    p.l1dtlb = TlbParams{"dtlb", 256, 4, 4096, 2};
    p.l2tlb = TlbParams{"l2tlb", 2048, 12, 4096, 12};
    p.memLatency = 240;
    p.pageWalkLatency = 60;
    return p;
}

CacheHierarchy::CacheHierarchy(const HierarchyParams &p)
    : p_(p),
      l1i_(p.l1i),
      l1d_(p.l1d),
      l2_(p.l2),
      l1itlb_(p.l1itlb),
      l1dtlb_(p.l1dtlb)
{
    if (p.l3)
        l3_.emplace(*p.l3);
    if (p.l2tlb)
        l2tlb_.emplace(*p.l2tlb);
}

Cycles
CacheHierarchy::access(std::uint64_t addr, bool instr)
{
    Cycles latency = 0;

    // Address translation.
    Tlb &l1tlb = instr ? l1itlb_ : l1dtlb_;
    if (!l1tlb.access(addr)) {
        if (l2tlb_ && l2tlb_->access(addr)) {
            latency += l2tlb_->params().roundTripCycles;
        } else {
            latency += p_.pageWalkLatency;
        }
    }

    // Cache lookup: latency of the level that hits.
    Cache &l1 = instr ? l1i_ : l1d_;
    if (l1.access(addr))
        return latency + l1.params().roundTripCycles;
    if (l2_.access(addr))
        return latency + l2_.params().roundTripCycles;
    if (l3_ && l3_->access(addr))
        return latency + l3_->params().roundTripCycles;
    return latency + p_.memLatency;
}

} // namespace umany
