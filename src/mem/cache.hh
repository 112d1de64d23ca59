/**
 * @file
 * Functional set-associative cache model with pluggable replacement.
 *
 * Used in two roles: (1) trace-driven hit-rate measurement for the
 * characterization figures (Fig 1, Fig 9) and (2) calibration input
 * to the analytic CPI model.
 */

#ifndef UMANY_MEM_CACHE_HH
#define UMANY_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/replacement.hh"
#include "sim/types.hh"

namespace umany
{

/** Static cache geometry and timing. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
    Cycles roundTripCycles = 2; //!< Hit latency, Table 2.
};

/** A functional set-associative cache. */
class Cache
{
  public:
    /**
     * @param p Geometry; size must be a multiple of ways * line.
     * @param policy Replacement policy (owned); default LRU.
     */
    explicit Cache(const CacheParams &p,
                   std::unique_ptr<ReplacementPolicy> policy = nullptr);

    /**
     * Access @p addr: on hit, touch and return true; on miss, fill
     * (possibly evicting) and return false.
     */
    bool access(std::uint64_t addr);

    /** Probe without updating state. */
    bool contains(std::uint64_t addr) const;

    /**
     * Insert @p addr without counting an access (prefetch fill).
     * No-op when the line is already resident.
     */
    void fill(std::uint64_t addr);

    const CacheParams &params() const { return p_; }
    std::uint32_t numSets() const { return sets_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    double hitRate() const;

  private:
    CacheParams p_;
    std::uint32_t sets_ = 0;
    std::unique_ptr<ReplacementPolicy> policy_;

    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
    };
    std::vector<Line> lines_;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t order_ = 0;

    std::uint64_t lineAddr(std::uint64_t addr) const;
    std::uint32_t setOf(std::uint64_t line_addr) const;
};

} // namespace umany

#endif // UMANY_MEM_CACHE_HH
