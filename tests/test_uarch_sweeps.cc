/**
 * @file
 * Parameterized sweeps over the microarchitecture substrate:
 * predictor sizing, cache geometry, and prefetcher degree — the
 * monotonicity/sanity properties a reviewer would spot-check.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "sim/rng.hh"
#include "uarch/gshare.hh"
#include "uarch/perceptron.hh"
#include "uarch/trace_gen.hh"

namespace umany
{
namespace
{

/** G-share accuracy should not degrade as the table grows. */
class GshareSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GshareSizeSweep, LearnsLoopMixAtAnySize)
{
    GsharePredictor bp(GetParam(), std::min(GetParam(), 12u));
    Rng rng(7);
    // 64 loop branches with distinct periods.
    std::vector<int> counters(64, 0);
    std::uint64_t wrong = 0;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        const std::size_t b = rng.below(64);
        const int period = 3 + static_cast<int>(b % 6);
        const bool taken = ++counters[b] % period != 0;
        if (!bp.step(0x1000 + b * 4, taken) && i > n / 2)
            ++wrong;
    }
    // Interleaving 64 loops scrambles the global history, so this
    // is a hard mix; the predictor must still stay bounded well
    // below coin-flipping at every table size.
    EXPECT_LT(static_cast<double>(wrong) / (n / 2), 0.32)
        << "table bits " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TableBits, GshareSizeSweep,
                         ::testing::Values(10u, 12u, 14u, 16u));

/** Perceptron history-length sweep: longer history never hurts on a
 *  long-range-correlated branch. */
class PerceptronHistorySweep
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PerceptronHistorySweep, AccuracyTracksHistoryReach)
{
    const unsigned hist_bits = GetParam();
    PerceptronPredictor bp(1024, hist_bits);
    Rng rng(9);
    std::uint64_t hist = 0;
    std::uint64_t wrong = 0;
    const int n = 60000;
    const unsigned tap = 18;
    for (int i = 0; i < n; ++i) {
        const bool noise = rng.chance(0.5);
        const bool taken =
            i < 64 ? noise : ((hist >> tap) & 1) != 0;
        if (!bp.step(0x40, taken) && i > n / 2)
            ++wrong;
        hist = (hist << 1) | (taken ? 1 : 0);
        bp.step(0x80, noise);
        hist = (hist << 1) | (noise ? 1 : 0);
    }
    const double mr = static_cast<double>(wrong) / (n / 2);
    // The tap sits at effective distance ~2*tap; history shorter
    // than that cannot learn it, longer history nails it.
    if (hist_bits > 2 * tap + 2)
        EXPECT_LT(mr, 0.05) << hist_bits;
    else
        EXPECT_GT(mr, 0.30) << hist_bits;
}

INSTANTIATE_TEST_SUITE_P(HistoryBits, PerceptronHistorySweep,
                         ::testing::Values(8u, 16u, 40u, 48u));

/** Cache associativity sweep: conflict misses fall as ways rise. */
class CacheAssocSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheAssocSweep, PowerOfTwoStrideConflicts)
{
    const unsigned ways = GetParam();
    Cache c(CacheParams{"c", 64 * 1024, ways, 64, 2});
    // Walk `ways` conflicting lines repeatedly: they all fit.
    const std::uint64_t sets = 64 * 1024 / 64 / ways;
    const std::uint64_t stride = sets * 64;
    for (int rep = 0; rep < 20; ++rep) {
        for (unsigned w = 0; w < ways; ++w)
            c.access(w * stride);
    }
    // After warmup: 100% hits.
    const std::uint64_t warm_misses = c.misses();
    for (int rep = 0; rep < 10; ++rep) {
        for (unsigned w = 0; w < ways; ++w)
            c.access(w * stride);
    }
    EXPECT_EQ(c.misses(), warm_misses) << ways << " ways";
    // One more conflicting line thrashes an LRU set.
    const std::uint64_t accesses0 = c.accesses();
    for (int rep = 0; rep < 10; ++rep) {
        for (unsigned w = 0; w <= ways; ++w)
            c.access(w * stride);
    }
    const double hit_rate =
        1.0 - static_cast<double>(c.misses() - warm_misses) /
                  static_cast<double>(c.accesses() - accesses0);
    EXPECT_LT(hit_rate, 0.2) << ways << " ways";
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheAssocSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

/** Trace generation determinism across lengths (prefix property is
 *  NOT promised, but same seed + same length must reproduce). */
class TraceDeterminism
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceDeterminism, SameSeedSameTrace)
{
    const UarchTrace a = TraceGen::monolithic(GetParam(), 20000);
    const UarchTrace b = TraceGen::monolithic(GetParam(), 20000);
    EXPECT_EQ(a.dataAddrs, b.dataAddrs);
    EXPECT_EQ(a.instrAddrs, b.instrAddrs);
    EXPECT_EQ(a.branches, b.branches);
    const UarchTrace c = TraceGen::microservice(GetParam(), 20000);
    const UarchTrace d = TraceGen::microservice(GetParam(), 20000);
    EXPECT_EQ(c.dataAddrs, d.dataAddrs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceDeterminism,
                         ::testing::Values<std::uint64_t>(1, 42,
                                                          0x5eed));

} // namespace
} // namespace umany
