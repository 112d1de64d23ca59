#include "workload/service.hh"

#include "sim/logging.hh"

namespace umany
{

ServiceId
ServiceCatalog::add(ServiceSpec spec)
{
    if (!spec.makeBehavior)
        fatal("service '%s' has no behaviour generator",
              spec.name.c_str());
    const ServiceId id = static_cast<ServiceId>(specs_.size());
    spec.id = id;
    specs_.push_back(std::move(spec));
    return id;
}

const ServiceSpec &
ServiceCatalog::at(ServiceId id) const
{
    if (id >= specs_.size())
        panic("service id %u out of range", id);
    return specs_[id];
}

std::vector<ServiceId>
ServiceCatalog::endpoints() const
{
    std::vector<ServiceId> out;
    for (const auto &s : specs_) {
        if (s.endpoint)
            out.push_back(s.id);
    }
    return out;
}

const ServiceSpec *
ServiceCatalog::byName(const std::string &name) const
{
    for (const auto &s : specs_) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

void
ServiceCatalog::makeBehavior(ServiceId id, Rng &rng,
                             Behavior &out) const
{
    const ServiceSpec &spec = at(id);
    out.clear();
    spec.makeBehavior(rng, out);
    if (!out.wellFormed())
        panic("service '%s' generated a malformed behaviour",
              spec.name.c_str());
}

} // namespace umany
