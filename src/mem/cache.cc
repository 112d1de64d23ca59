#include "mem/cache.hh"

#include "sim/logging.hh"

namespace umany
{

Cache::Cache(const CacheParams &p,
             std::unique_ptr<ReplacementPolicy> policy)
    : p_(p), policy_(std::move(policy))
{
    if (p_.lineBytes == 0 || p_.ways == 0)
        fatal("cache '%s': line size and ways must be positive",
              p_.name.c_str());
    const std::uint64_t line_count = p_.sizeBytes / p_.lineBytes;
    if (line_count == 0 || line_count % p_.ways != 0) {
        fatal("cache '%s': size %llu not divisible into %u ways",
              p_.name.c_str(),
              static_cast<unsigned long long>(p_.sizeBytes), p_.ways);
    }
    sets_ = static_cast<std::uint32_t>(line_count / p_.ways);
    lines_.assign(line_count, Line{});
    if (!policy_)
        policy_ = std::make_unique<LruPolicy>();
    policy_->reset(sets_, p_.ways);
}

std::uint64_t
Cache::lineAddr(std::uint64_t addr) const
{
    return addr / p_.lineBytes;
}

std::uint32_t
Cache::setOf(std::uint64_t line_addr) const
{
    return static_cast<std::uint32_t>(line_addr % sets_);
}

bool
Cache::access(std::uint64_t addr)
{
    ++accesses_;
    ++order_;
    const std::uint64_t la = lineAddr(addr);
    const std::uint32_t set = setOf(la);
    const std::size_t base = static_cast<std::size_t>(set) * p_.ways;

    for (std::uint32_t w = 0; w < p_.ways; ++w) {
        Line &line = lines_[base + w];
        if (line.valid && line.tag == la) {
            policy_->touch(set, w, order_, la);
            return true;
        }
    }

    ++misses_;
    // Fill: first invalid way, else policy victim.
    std::uint32_t way = p_.ways;
    for (std::uint32_t w = 0; w < p_.ways; ++w) {
        if (!lines_[base + w].valid) {
            way = w;
            break;
        }
    }
    if (way == p_.ways)
        way = policy_->victim(set);
    if (way >= p_.ways)
        panic("cache '%s': policy returned bad victim %u",
              p_.name.c_str(), way);
    lines_[base + way] = Line{la, true};
    policy_->insert(set, way, order_, la);
    return false;
}

void
Cache::fill(std::uint64_t addr)
{
    if (contains(addr))
        return;
    ++order_;
    const std::uint64_t la = lineAddr(addr);
    const std::uint32_t set = setOf(la);
    const std::size_t base = static_cast<std::size_t>(set) * p_.ways;
    std::uint32_t way = p_.ways;
    for (std::uint32_t w = 0; w < p_.ways; ++w) {
        if (!lines_[base + w].valid) {
            way = w;
            break;
        }
    }
    if (way == p_.ways)
        way = policy_->victim(set);
    lines_[base + way] = Line{la, true};
    policy_->insert(set, way, order_, la);
}

bool
Cache::contains(std::uint64_t addr) const
{
    const std::uint64_t la = lineAddr(addr);
    const std::uint32_t set = setOf(la);
    const std::size_t base = static_cast<std::size_t>(set) * p_.ways;
    for (std::uint32_t w = 0; w < p_.ways; ++w) {
        const Line &line = lines_[base + w];
        if (line.valid && line.tag == la)
            return true;
    }
    return false;
}

double
Cache::hitRate() const
{
    if (accesses_ == 0)
        return 0.0;
    return 1.0 - static_cast<double>(misses_) /
                     static_cast<double>(accesses_);
}

} // namespace umany
