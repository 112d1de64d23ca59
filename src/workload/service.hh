/**
 * @file
 * Service catalog: the set of microservices deployed on the cluster,
 * each with a behaviour generator producing per-request execution
 * shapes (compute segments + blocking call groups).
 */

#ifndef UMANY_WORKLOAD_SERVICE_HH
#define UMANY_WORKLOAD_SERVICE_HH

#include <functional>
#include <string>
#include <vector>

#include "sched/request.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace umany
{

/** Static description of one microservice. */
struct ServiceSpec
{
    ServiceId id = invalidId;
    std::string name;
    /** Externally invocable endpoint (one of the benchmark "apps"). */
    bool endpoint = false;
    /** Relative arrival-mix weight (endpoints only). */
    double mixWeight = 1.0;
    /** Relative expected load, used to size instance placement. */
    double loadWeight = 1.0;
    /**
     * Per-request behaviour generator: fills a cleared Behavior
     * (whose vectors may keep capacity from an earlier request).
     */
    std::function<void(Rng &, Behavior &)> makeBehavior;
};

/** Registry of services; ids are dense indices into the catalog. */
class ServiceCatalog
{
  public:
    /** Register a service; returns its assigned id. */
    ServiceId add(ServiceSpec spec);

    const ServiceSpec &at(ServiceId id) const;
    std::size_t size() const { return specs_.size(); }

    /** Ids of all endpoint services. */
    std::vector<ServiceId> endpoints() const;

    /** Lookup by name; nullptr if absent. */
    const ServiceSpec *byName(const std::string &name) const;

    /**
     * Draw one request behaviour for @p id into @p out, clearing it
     * first; panics when the service draws a malformed shape.
     */
    void makeBehavior(ServiceId id, Rng &rng, Behavior &out) const;

  private:
    std::vector<ServiceSpec> specs_;
};

} // namespace umany

#endif // UMANY_WORKLOAD_SERVICE_HH
