#include "mem/replacement.hh"

namespace umany
{

void
LruPolicy::reset(std::uint32_t sets, std::uint32_t ways)
{
    ways_ = ways;
    lastUse_.assign(static_cast<std::size_t>(sets) * ways, 0);
}

void
LruPolicy::touch(std::uint32_t set, std::uint32_t way,
                 std::uint64_t order, std::uint64_t)
{
    lastUse_[static_cast<std::size_t>(set) * ways_ + way] = order;
}

void
LruPolicy::insert(std::uint32_t set, std::uint32_t way,
                  std::uint64_t order, std::uint64_t)
{
    lastUse_[static_cast<std::size_t>(set) * ways_ + way] = order;
}

std::uint32_t
LruPolicy::victim(std::uint32_t set)
{
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    std::uint32_t best = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (lastUse_[base + w] < lastUse_[base + best])
            best = w;
    }
    return best;
}

ProfileGuidedPolicy::ProfileGuidedPolicy(
    std::unordered_set<std::uint64_t> hot_tags)
    : hotTags_(std::move(hot_tags))
{
}

void
ProfileGuidedPolicy::reset(std::uint32_t sets, std::uint32_t ways)
{
    ways_ = ways;
    lastUse_.assign(static_cast<std::size_t>(sets) * ways, 0);
    isHot_.assign(static_cast<std::size_t>(sets) * ways, 0);
}

void
ProfileGuidedPolicy::touch(std::uint32_t set, std::uint32_t way,
                           std::uint64_t order, std::uint64_t)
{
    lastUse_[static_cast<std::size_t>(set) * ways_ + way] = order;
}

void
ProfileGuidedPolicy::insert(std::uint32_t set, std::uint32_t way,
                            std::uint64_t order, std::uint64_t tag)
{
    const std::size_t idx = static_cast<std::size_t>(set) * ways_ + way;
    lastUse_[idx] = order;
    isHot_[idx] = hotTags_.count(tag) ? 1 : 0;
}

std::uint32_t
ProfileGuidedPolicy::victim(std::uint32_t set)
{
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    // Prefer the LRU line among profile-cold lines; fall back to
    // plain LRU when every resident line is hot.
    std::uint32_t best = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (isHot_[base + w])
            continue;
        if (best == ways_ || lastUse_[base + w] < lastUse_[base + best])
            best = w;
    }
    if (best != ways_)
        return best;
    best = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (lastUse_[base + w] < lastUse_[base + best])
            best = w;
    }
    return best;
}

} // namespace umany
