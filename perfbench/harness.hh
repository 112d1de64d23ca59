/**
 * @file
 * Layer harnesses: each times one layer's public API in isolation, so
 * a per-layer time is a measured cost of that layer rather than a
 * share of a whole-run clock. Each harness runs a handful of chunks
 * and reports the median chunk.
 */

#ifndef UMANY_PERFBENCH_HARNESS_HH
#define UMANY_PERFBENCH_HARNESS_HH

#include <cstddef>

#include "arch/machine.hh"

namespace pb
{

/** Median host cost of one operation, and allocations per op. */
struct OpCost
{
    double nsPerOp = 0.0;
    double allocsPerOp = 0.0;
};

/**
 * EventQueue schedule + dispatch at a steady @p depth pending events
 * (the hold model: every dispatched event schedules one successor).
 */
OpCost kernelCost(std::size_t depth);

/**
 * Network::send + EventQueue::run over makeTopology(@p machine):
 * random endpoint pairs, contention on, host cost per message.
 */
OpCost nocCost(const umany::MachineParams &machine);

/** HwRq admit + dequeue + complete, cost per operation. */
OpCost hwrqCost();

/** SwQueueSystem enqueue + dequeue over @p machine's queues, cost per
 *  operation. */
OpCost swqCost(const umany::MachineParams &machine);

} // namespace pb

#endif // UMANY_PERFBENCH_HARNESS_HH
