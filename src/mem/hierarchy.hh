/**
 * @file
 * Cache/TLB hierarchy composition per Table 2. Drives Fig 9's
 * hit-rate characterization and supplies miss rates to the analytic
 * CPI model.
 */

#ifndef UMANY_MEM_HIERARCHY_HH
#define UMANY_MEM_HIERARCHY_HH

#include <optional>

#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace umany
{

/** Parameters assembling a full per-core hierarchy. */
struct HierarchyParams
{
    CacheParams l1i;
    CacheParams l1d;
    CacheParams l2;              //!< Unified second level.
    std::optional<CacheParams> l3; //!< ServerClass only.
    TlbParams l1itlb;
    TlbParams l1dtlb;
    std::optional<TlbParams> l2tlb; //!< ServerClass only.
    Cycles memLatency = 200;     //!< DRAM round trip fallback.
    Cycles pageWalkLatency = 60; //!< Full TLB-miss walk.
};

/** Table-2 ServerClass hierarchy. */
HierarchyParams serverClassHierarchyParams();

/**
 * A per-core cache/TLB hierarchy. access() walks TLBs then caches
 * and returns the access latency in cycles; all structures update
 * their hit-rate statistics.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyParams &p);

    /** Access @p addr; @p instr selects the instruction path. */
    Cycles access(std::uint64_t addr, bool instr);

    /** @name Per-structure accessors for Fig 9. @{ */
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache *l3() const { return l3_ ? &*l3_ : nullptr; }
    const Tlb &l1itlb() const { return l1itlb_; }
    const Tlb &l1dtlb() const { return l1dtlb_; }
    const Tlb *l2tlb() const { return l2tlb_ ? &*l2tlb_ : nullptr; }
    /** @} */

  private:
    HierarchyParams p_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    std::optional<Cache> l3_;
    Tlb l1itlb_;
    Tlb l1dtlb_;
    std::optional<Tlb> l2tlb_;
};

} // namespace umany

#endif // UMANY_MEM_HIERARCHY_HH
