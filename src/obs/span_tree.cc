#include "obs/span_tree.hh"

namespace umany
{

namespace
{

/** The heaviest non-blocked component of a single record. */
void
selfTopOf(const AttribRecord &r, AttribComp &comp, Tick &ticks)
{
    comp = AttribComp::ServiceExec;
    ticks = 0;
    for (std::size_t i = 0; i < kNumAttribComps; ++i) {
        if (i == static_cast<std::size_t>(AttribComp::BlockedOnChild))
            continue;
        if (r.comp[i] > ticks) {
            ticks = r.comp[i];
            comp = static_cast<AttribComp>(i);
        }
    }
}

/** The child whose resolution arrived last (the gating child). */
const AttribRecord *
gatingChild(const AttribRecord &node)
{
    const AttribRecord *gating = nullptr;
    for (const AttribRecord *c : node.children) {
        if (!c->resolved)
            continue;
        if (gating == nullptr || c->resolvedAt > gating->resolvedAt ||
            (c->resolvedAt == gating->resolvedAt && c->id > gating->id))
            gating = c;
    }
    return gating;
}

} // namespace

void
extractCriticalPath(const AttribRecord &root, CriticalPath &path)
{
    constexpr auto blocked =
        static_cast<std::size_t>(AttribComp::BlockedOnChild);

    path.steps.clear();
    path.comp.fill(0);
    const AttribRecord *node = &root;
    std::size_t depth = 0;
    while (node != nullptr) {
        CriticalStep step;
        step.id = node->id;
        step.service = node->service;
        step.depth = depth;
        step.createdAt = node->createdAt;
        step.resolvedAt = node->resolvedAt;
        selfTopOf(*node, step.selfTop, step.selfTopTicks);
        path.steps.push_back(step);

        for (std::size_t i = 0; i < kNumAttribComps; ++i) {
            if (i != blocked)
                path.comp[i] += node->comp[i];
        }

        const AttribRecord *child = gatingChild(*node);
        if (child == nullptr) {
            // Leaf (or unresolvable children): its blocked time is
            // storage / unexpanded wait and stays attributed here.
            path.comp[blocked] += node->comp[blocked];
            break;
        }
        // Replace the blocked window with the gating child's own
        // breakdown; whatever the child does not cover (response
        // transport, wait beyond the gating child) is genuine
        // blocked-on-child slack.
        const Tick child_total = child->total();
        if (node->comp[blocked] > child_total)
            path.comp[blocked] += node->comp[blocked] - child_total;
        node = child;
        depth += 1;
    }

    path.totalTicks = root.total();
}

} // namespace umany
