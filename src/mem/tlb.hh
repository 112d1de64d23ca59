/**
 * @file
 * TLB model: a set-associative cache over virtual page numbers.
 */

#ifndef UMANY_MEM_TLB_HH
#define UMANY_MEM_TLB_HH

#include <cstdint>
#include <string>

#include "mem/cache.hh"

namespace umany
{

/** Static TLB geometry and timing (Table 2). */
struct TlbParams
{
    std::string name = "tlb";
    std::uint32_t entries = 128;
    std::uint32_t ways = 4;
    std::uint32_t pageBytes = 4096;
    Cycles roundTripCycles = 2;
};

/**
 * Set-associative TLB. Reuses the cache machinery with one "line"
 * per page translation.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &p);

    /** Translate the page containing @p addr; true on TLB hit. */
    bool access(std::uint64_t addr);

    const TlbParams &params() const { return p_; }
    std::uint64_t accesses() const { return cache_.accesses(); }
    std::uint64_t misses() const { return cache_.misses(); }
    double hitRate() const { return cache_.hitRate(); }

  private:
    TlbParams p_;
    Cache cache_;

    static CacheParams asCacheParams(const TlbParams &p);
};

} // namespace umany

#endif // UMANY_MEM_TLB_HH
