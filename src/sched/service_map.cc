#include "sched/service_map.hh"

#include "sim/logging.hh"

namespace umany
{

const std::vector<VillageId> ServiceMap::emptyList_;

void
ServiceMap::addInstance(ServiceId service, VillageId village)
{
    if (service >= entries_.size())
        entries_.resize(service + 1);
    entries_[service].villages.push_back(village);
}

bool
ServiceMap::hasService(ServiceId service) const
{
    return service < entries_.size() &&
           !entries_[service].villages.empty();
}

VillageId
ServiceMap::pick(ServiceId service)
{
    if (!hasService(service))
        panic("ServiceMap: no instance of service %u", service);
    ++lookups_;
    Entry &e = entries_[service];
    const VillageId v = e.villages[e.next % e.villages.size()];
    e.next = (e.next + 1) % e.villages.size();
    return v;
}

VillageId
ServiceMap::pickLive(ServiceId service)
{
    if (!hasService(service))
        panic("ServiceMap: no instance of service %u", service);
    ++lookups_;
    Entry &e = entries_[service];
    for (std::size_t i = 0; i < e.villages.size(); ++i) {
        const VillageId v = e.villages[e.next % e.villages.size()];
        e.next = (e.next + 1) % e.villages.size();
        if (villageUp(v))
            return v;
    }
    return invalidId;
}

void
ServiceMap::setVillageUp(VillageId village, bool up)
{
    if (village >= villageDown_.size()) {
        if (up)
            return;
        villageDown_.resize(village + 1, 0);
    }
    if ((villageDown_[village] == 0) == up)
        return;
    villageDown_[village] = up ? 0 : 1;
    if (up)
        --downCount_;
    else
        ++downCount_;
}

const std::vector<VillageId> &
ServiceMap::villagesOf(ServiceId service) const
{
    if (service >= entries_.size())
        return emptyList_;
    return entries_[service].villages;
}

std::size_t
ServiceMap::serviceCount() const
{
    std::size_t n = 0;
    for (const auto &e : entries_) {
        if (!e.villages.empty())
            ++n;
    }
    return n;
}

} // namespace umany
