/**
 * @file
 * Allocation counting. pb_trace links alloc_count.cc, which replaces
 * the global operator new with a counting forwarder; pb_time links
 * alloc_none.cc, so the timed runs pay nothing for it.
 */

#ifndef UMANY_PERFBENCH_ALLOC_HH
#define UMANY_PERFBENCH_ALLOC_HH

#include <cstdint>

namespace pb
{

/** Whether this binary counts allocations. */
bool allocsCounted();

/** Global operator new calls since process start (0 when uncounted). */
std::uint64_t allocsNow();

} // namespace pb

#endif // UMANY_PERFBENCH_ALLOC_HH
