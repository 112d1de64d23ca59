/**
 * @file
 * The benchmark's yardstick for how fast the shared host runs at a
 * given moment (see README.md, "Noise").
 */

#ifndef UMANY_PERFBENCH_CALIBRATE_HH
#define UMANY_PERFBENCH_CALIBRATE_HH

namespace pb
{

/**
 * One fixed piece of host work shaped like the simulator's inner
 * loop: a binary-heap event queue, a heap allocation of varying size
 * per event and a hash-map update per event over a few MB. It uses
 * only the standard library, so no change under src/ changes its
 * cost: timed next to a call, it measures the host, not the program.
 * @return Host seconds it took.
 */
double calibrate();

} // namespace pb

#endif // UMANY_PERFBENCH_CALIBRATE_HH
