/**
 * @file
 * Prefetcher interface shared by the data prefetcher (Pythia-lite
 * RL) and the instruction prefetcher (I-SPY-lite). Prefetchers
 * observe the demand stream and fill a cache; usefulness is tracked
 * by watching demand hits on lines the prefetcher inserted.
 */

#ifndef UMANY_UARCH_PREFETCHER_HH
#define UMANY_UARCH_PREFETCHER_HH

#include <cstdint>
#include <unordered_set>

#include "mem/cache.hh"

namespace umany
{

/** Base class for demand-stream-driven prefetchers. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe one demand access (after the cache processed it).
     *
     * @param addr Demand address.
     * @param hit Whether the demand access hit.
     * @param cache Cache to fill prefetches into.
     */
    virtual void observe(std::uint64_t addr, bool hit,
                         Cache &cache) = 0;

    virtual const char *name() const = 0;

    std::uint64_t issued() const { return issued_; }
    std::uint64_t useful() const { return useful_; }

    /** Fraction of issued prefetches that saw a demand hit. */
    double
    accuracy() const
    {
        return issued_ ? static_cast<double>(useful_) /
                             static_cast<double>(issued_)
                       : 0.0;
    }

  protected:
    /** Issue a prefetch of @p addr into @p cache. */
    void issue(std::uint64_t addr, Cache &cache);

    /**
     * Must be called first in observe(): credits usefulness when the
     * demand hits a prefetched line.
     * @return true when @p addr was a previously prefetched line.
     */
    bool creditIfPrefetched(std::uint64_t addr, const Cache &cache);

    std::uint64_t issued_ = 0;
    std::uint64_t useful_ = 0;

  private:
    std::unordered_set<std::uint64_t> outstanding_; //!< line addrs
};

} // namespace umany

#endif // UMANY_UARCH_PREFETCHER_HH
