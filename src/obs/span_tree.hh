/**
 * @file
 * Cross-RPC span trees and critical-path extraction.
 *
 * AttribRecords already form a tree (children pointers); this
 * module walks a completed root's tree and extracts the critical
 * path: at every node the chain descends into the *gating* child —
 * the one whose resolution arrived last — because until that child
 * resolves the parent cannot make progress. Ledger components along
 * the chain are summed into a path-level attribution: non-blocked
 * components are taken as-is, and each node's blocked-on-child time
 * is replaced by the gating child's own breakdown plus the residual
 * slack (transport of the response, sibling-free wait) that no child
 * accounts for.
 */

#ifndef UMANY_OBS_SPAN_TREE_HH
#define UMANY_OBS_SPAN_TREE_HH

#include <vector>

#include "obs/attrib.hh"

namespace umany
{

/** One node on the critical path, root first. */
struct CriticalStep
{
    RequestId id = 0;
    ServiceId service = invalidId;
    std::size_t depth = 0;
    Tick createdAt = 0;
    Tick resolvedAt = 0;
    /** The component this node charged the most (excl. blocked). */
    AttribComp selfTop = AttribComp::ServiceExec;
    Tick selfTopTicks = 0;
};

/** The slowest chain of one root, with path-level attribution. */
struct CriticalPath
{
    std::vector<CriticalStep> steps;
    std::array<Tick, kNumAttribComps> comp{};
    Tick totalTicks = 0;
};

/**
 * Extract the critical path of `root` into `out`, replacing what it
 * held but keeping its capacity. Only resolved children can gate; a
 * node with none ends the descent (its time stays in
 * BlockedOnChild).
 */
void extractCriticalPath(const AttribRecord &root, CriticalPath &out);

} // namespace umany

#endif // UMANY_OBS_SPAN_TREE_HH
