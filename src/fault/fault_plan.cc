#include "fault/fault_plan.hh"

#include <algorithm>

#include "fault/fault_state.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace umany
{

namespace
{

/** Pick @p count distinct elements of @p pool (order randomized). */
template <typename T>
std::vector<T>
pickDistinct(std::vector<T> pool, std::uint32_t count, Rng &rng)
{
    if (count > pool.size()) {
        warn("fault plan asked for %u targets but only %zu exist; "
             "clamping",
             count, pool.size());
        count = static_cast<std::uint32_t>(pool.size());
    }
    std::vector<T> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::size_t j = rng.below(pool.size());
        out.push_back(pool[j]);
        pool[j] = pool.back();
        pool.pop_back();
    }
    return out;
}

} // namespace

FaultPlan
randomLinkFailures(const Topology &topo, std::uint32_t count,
                   Tick at, std::uint64_t seed, ServerId server)
{
    Rng rng(streamSeed(seed, rngstream::fault));
    FaultPlan plan;
    for (const LinkId id :
         pickDistinct(fabricLinks(topo), count, rng)) {
        plan.add({at, FaultKind::LinkDown, server, id});
    }
    return plan;
}

FaultPlan
randomNodeFailures(const Topology &topo, std::uint32_t count,
                   Tick at, std::uint64_t seed, ServerId server)
{
    Rng rng(streamSeed(seed, rngstream::fault));
    FaultPlan plan;
    for (const NodeId id :
         pickDistinct(fabricNodes(topo), count, rng)) {
        plan.add({at, FaultKind::NodeDown, server,
                  static_cast<std::uint32_t>(id)});
    }
    return plan;
}

FaultPlan
randomVillageFailures(std::uint32_t numVillages, std::uint32_t count,
                      Tick at, std::uint64_t seed, ServerId server)
{
    std::vector<std::uint32_t> pool(numVillages);
    for (std::uint32_t v = 0; v < numVillages; ++v)
        pool[v] = v;
    Rng rng(streamSeed(seed, rngstream::fault));
    FaultPlan plan;
    for (const std::uint32_t v : pickDistinct(pool, count, rng))
        plan.add({at, FaultKind::VillageDown, server, v});
    return plan;
}

FaultPlan
randomPackageFailures(std::uint32_t numPackages, std::uint32_t count,
                      Tick at, std::uint64_t seed)
{
    std::vector<std::uint32_t> pool(numPackages);
    for (std::uint32_t p = 0; p < numPackages; ++p)
        pool[p] = p;
    Rng rng(streamSeed(seed, rngstream::fault));
    FaultPlan plan;
    for (const std::uint32_t p : pickDistinct(pool, count, rng))
        plan.add({at, FaultKind::PackageDown, invalidId, p});
    return plan;
}

} // namespace umany
