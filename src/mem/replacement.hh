/**
 * @file
 * Cache replacement policies: LRU, random, and a profile-guided
 * policy in the spirit of Ripple (Khan et al., ISCA '21) that
 * protects profile-identified hot lines — used by the Fig 1
 * I-cache-replacement experiment.
 */

#ifndef UMANY_MEM_REPLACEMENT_HH
#define UMANY_MEM_REPLACEMENT_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/rng.hh"

namespace umany
{

/**
 * Replacement policy over a (sets x ways) array.
 *
 * The cache calls touch() on hits, insert() on fills, and victim()
 * to choose the way to evict in a full set.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** (Re)size policy metadata. */
    virtual void reset(std::uint32_t sets, std::uint32_t ways) = 0;

    /** A hit touched this way. */
    virtual void touch(std::uint32_t set, std::uint32_t way,
                       std::uint64_t order, std::uint64_t tag) = 0;

    /** A fill placed @p tag into this way. */
    virtual void insert(std::uint32_t set, std::uint32_t way,
                        std::uint64_t order, std::uint64_t tag) = 0;

    /** Pick a victim way in a full set. */
    virtual std::uint32_t victim(std::uint32_t set) = 0;

    virtual const char *name() const = 0;
};

/** Classic least-recently-used. */
class LruPolicy : public ReplacementPolicy
{
  public:
    void reset(std::uint32_t sets, std::uint32_t ways) override;
    void touch(std::uint32_t set, std::uint32_t way,
               std::uint64_t order, std::uint64_t tag) override;
    void insert(std::uint32_t set, std::uint32_t way,
                std::uint64_t order, std::uint64_t tag) override;
    std::uint32_t victim(std::uint32_t set) override;
    const char *name() const override { return "lru"; }

  private:
    std::uint32_t ways_ = 0;
    std::vector<std::uint64_t> lastUse_;
};

/**
 * Ripple-lite: profile-guided replacement. Lines whose tags appear
 * in the hot-set provided by an offline profile are evicted only if
 * the whole set is hot; otherwise the LRU line among cold lines is
 * chosen.
 */
class ProfileGuidedPolicy : public ReplacementPolicy
{
  public:
    /** @param hot_tags Profile-identified hot line addresses. */
    explicit ProfileGuidedPolicy(std::unordered_set<std::uint64_t> hot_tags);

    void reset(std::uint32_t sets, std::uint32_t ways) override;
    void touch(std::uint32_t set, std::uint32_t way,
               std::uint64_t order, std::uint64_t tag) override;
    void insert(std::uint32_t set, std::uint32_t way,
                std::uint64_t order, std::uint64_t tag) override;
    std::uint32_t victim(std::uint32_t set) override;
    const char *name() const override { return "profile-guided"; }

  private:
    std::unordered_set<std::uint64_t> hotTags_;
    std::uint32_t ways_ = 0;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> isHot_;
};

} // namespace umany

#endif // UMANY_MEM_REPLACEMENT_HH
