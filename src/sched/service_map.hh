/**
 * @file
 * ServiceMap (§4.2, Fig 12): the top-level NIC's table mapping each
 * service ID to the set of villages hosting an instance, consulted
 * in hardware on arrival and walked round-robin.
 */

#ifndef UMANY_SCHED_SERVICE_MAP_HH
#define UMANY_SCHED_SERVICE_MAP_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace umany
{

/** Per-package service-to-villages table with round-robin pick. */
class ServiceMap
{
  public:
    /** Register an instance of @p service in @p village. */
    void addInstance(ServiceId service, VillageId village);

    /** True if at least one instance of @p service exists. */
    bool hasService(ServiceId service) const;

    /** Round-robin choice among the hosting villages. */
    VillageId pick(ServiceId service);

    /**
     * Round-robin choice skipping villages marked down; returns
     * invalidId when no live instance exists. Only used when the
     * machine is degraded — pick() keeps the healthy arithmetic.
     */
    VillageId pickLive(ServiceId service);

    /** Mark a village up/down for re-dispatch purposes. */
    void setVillageUp(VillageId village, bool up);

    /** Whether @p village is accepting dispatches. */
    bool
    villageUp(VillageId village) const
    {
        return village >= villageDown_.size() ||
               villageDown_[village] == 0;
    }

    /** Number of villages currently marked down. */
    std::size_t villagesDown() const { return downCount_; }

    /** All villages hosting @p service. */
    const std::vector<VillageId> &villagesOf(ServiceId service) const;

    /** Services with at least one instance. */
    std::size_t serviceCount() const;

    std::uint64_t lookups() const { return lookups_; }

  private:
    struct Entry
    {
        std::vector<VillageId> villages;
        std::size_t next = 0;
    };
    std::vector<Entry> entries_; //!< Indexed by ServiceId.
    std::vector<std::uint8_t> villageDown_; //!< Indexed by VillageId.
    std::size_t downCount_ = 0;
    std::uint64_t lookups_ = 0;

    static const std::vector<VillageId> emptyList_;
};

} // namespace umany

#endif // UMANY_SCHED_SERVICE_MAP_HH
