/**
 * @file
 * Live/dead state of a topology's links: the single structure the
 * injector mutates and that routing (Topology::route) and the
 * Network consult.
 *
 * The state is intentionally passive — it holds no event logic. The
 * FaultInjector applies FaultPlan events to it at the scheduled
 * ticks; the Network and Machine read it on the hot path through
 * cheap inline checks so a healthy package (no FaultState armed, or
 * one with nothing failed) pays nothing beyond a null/zero test.
 */

#ifndef UMANY_FAULT_FAULT_STATE_HH
#define UMANY_FAULT_FAULT_STATE_HH

#include <cstdint>
#include <vector>

#include "noc/link.hh"
#include "sim/types.hh"

namespace umany
{

class Topology;

/** Mutable fault state over one topology instance. */
class FaultState
{
  public:
    /** All links start up. */
    explicit FaultState(const Topology &topo);

    /** Whether link @p id is currently up. */
    bool
    linkUp(LinkId id) const
    {
        return up_[id] != 0;
    }

    /** Mark link @p id up or down (idempotent). */
    void setLinkUp(LinkId id, bool up);

    /** Number of links currently down. */
    std::size_t deadLinks() const { return deadLinks_; }

    /** Whether any link is down. */
    bool anyLinkDown() const { return deadLinks_ != 0; }

    std::size_t linkCount() const { return up_.size(); }

  private:
    std::vector<std::uint8_t> up_;
    std::size_t deadLinks_ = 0;
};

/**
 * All links incident to NH node @p node (either direction, access
 * links included) — the set an NH-down fault kills.
 */
std::vector<LinkId> linksTouchingNode(const Topology &topo,
                                      NodeId node);

/** Distinct NH node ids appearing on fabric (non-access) links. */
std::vector<NodeId> fabricNodes(const Topology &topo);

/** LinkIds of fabric (non-access) links. */
std::vector<LinkId> fabricLinks(const Topology &topo);

} // namespace umany

#endif // UMANY_FAULT_FAULT_STATE_HH
