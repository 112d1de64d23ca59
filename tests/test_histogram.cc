/**
 * @file
 * Unit and property tests for the log-bucketed histogram.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hh"
#include "stats/histogram.hh"

namespace umany
{
namespace
{

TEST(Histogram, EmptyHistogram)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(Histogram, SingleValue)
{
    Histogram h;
    h.add(42);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 42u);
    EXPECT_EQ(h.max(), 42u);
    EXPECT_EQ(h.quantile(0.0), 42u);
    EXPECT_EQ(h.quantile(1.0), 42u);
    EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(Histogram, SmallValuesAreExact)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 64; ++v)
        h.add(v);
    // Values below the sub-bucket count are stored exactly.
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.max(), 63u);
    EXPECT_EQ(h.count(), 64u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h;
    h.add(10, 99);
    h.add(1000, 1);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.p50(), 10u);
    EXPECT_GE(h.quantile(0.995), 1000u * 98 / 100);
}

TEST(Histogram, QuantileRelativeErrorBounded)
{
    Rng rng(99);
    Histogram h;
    std::vector<std::uint64_t> vals;
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t v = rng.below(1ull << 34) + 1;
        h.add(v);
        vals.push_back(v);
    }
    std::sort(vals.begin(), vals.end());
    for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
        const std::uint64_t exact =
            vals[static_cast<std::size_t>(q * (vals.size() - 1))];
        const std::uint64_t approx = h.quantile(q);
        const double rel =
            std::abs(static_cast<double>(approx) -
                     static_cast<double>(exact)) /
            static_cast<double>(exact);
        EXPECT_LT(rel, 0.03) << "q=" << q;
    }
}

TEST(Histogram, MeanMatchesExact)
{
    Rng rng(5);
    Histogram h;
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.below(1000000);
        h.add(v);
        sum += static_cast<double>(v);
    }
    EXPECT_NEAR(h.mean(), sum / 10000.0, 1e-6);
}

TEST(Histogram, MergeGrowsMismatchedLayouts)
{
    // A 3-octave layout only covers values < 128; merging a
    // default-layout histogram with larger samples into it must grow
    // the small layout instead of dropping buckets (or, worse,
    // indexing past its own range).
    Histogram small(3);
    small.add(10, 100);
    Histogram big;
    big.add(1ull << 30, 50);

    Histogram grown(3);
    grown.merge(small);
    grown.merge(big);
    EXPECT_EQ(grown.count(), 150u);
    EXPECT_EQ(grown.min(), 10u);
    EXPECT_GE(grown.max(), 1ull << 30);
    EXPECT_EQ(grown.p50(), 10u);
    EXPECT_GE(grown.quantile(0.99), 1ull << 30);

    // The other direction (small into large) was already safe; it
    // must still agree sample-for-sample.
    Histogram wide;
    wide.merge(big);
    wide.merge(small);
    EXPECT_EQ(wide.count(), grown.count());
    EXPECT_EQ(wide.p50(), grown.p50());
    EXPECT_EQ(wide.quantile(0.999), grown.quantile(0.999));
}

TEST(Histogram, OctaveLayoutBoundsAreEnforced)
{
    // One octave holds exactly the 64 exact buckets.
    Histogram tiny(1);
    tiny.add(63);
    EXPECT_EQ(tiny.count(), 1u);
    EXPECT_EQ(tiny.quantile(1.0), 63u);
}

TEST(Histogram, MergeCombines)
{
    Histogram a, b;
    for (int i = 0; i < 100; ++i)
        a.add(10);
    for (int i = 0; i < 100; ++i)
        b.add(1000000);
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_EQ(a.min(), 10u);
    EXPECT_GE(a.max(), 1000000u * 99 / 100);
    EXPECT_EQ(a.p50(), 10u);
}

TEST(Histogram, MergedShardsEqualConcatenatedStream)
{
    // Rack runs merge per-package histograms; merging must be
    // exactly equivalent to having observed the concatenated stream
    // in one histogram (bucket counts are additive, so every derived
    // statistic must agree exactly, not just approximately).
    Rng rng(314);
    constexpr int kParts = 7;
    Histogram parts[kParts];
    Histogram whole;
    for (int i = 0; i < 70000; ++i) {
        const std::uint64_t v = rng.below(1ull << 30) + 1;
        parts[i % kParts].add(v);
        whole.add(v);
    }
    Histogram merged;
    for (const Histogram &s : parts)
        merged.merge(s);

    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
    EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
    for (double q = 0.01; q < 1.0; q += 0.01)
        EXPECT_EQ(merged.quantile(q), whole.quantile(q)) << q;
}

TEST(Histogram, MergedQuantileErrorStaysBounded)
{
    // Merging parts must not compound the bucketing error: the
    // merged quantiles obey the same relative error bound as a
    // single histogram over the full stream.
    Rng rng(2718);
    constexpr int kParts = 5;
    Histogram parts[kParts];
    std::vector<std::uint64_t> vals;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t v = rng.below(1ull << 32) + 1;
        parts[i % kParts].add(v);
        vals.push_back(v);
    }
    Histogram merged;
    for (const Histogram &s : parts)
        merged.merge(s);
    std::sort(vals.begin(), vals.end());
    for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
        const std::uint64_t exact =
            vals[static_cast<std::size_t>(q * (vals.size() - 1))];
        const double rel =
            std::abs(static_cast<double>(merged.quantile(q)) -
                     static_cast<double>(exact)) /
            static_cast<double>(exact);
        EXPECT_LT(rel, 0.03) << "q=" << q;
    }
}

TEST(Histogram, MonotoneQuantiles)
{
    Rng rng(17);
    Histogram h;
    for (int i = 0; i < 5000; ++i)
        h.add(rng.below(1ull << 30));
    std::uint64_t prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        const std::uint64_t v = h.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

/** Property sweep: quantiles stay within [min, max] for many
 *  distributions. */
class HistogramPropertyTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HistogramPropertyTest, QuantilesWithinRange)
{
    Rng rng(GetParam());
    Histogram h;
    const std::uint64_t span = 1ull << (10 + GetParam() % 30);
    for (int i = 0; i < 2000; ++i)
        h.add(rng.below(span));
    for (const double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
        EXPECT_GE(h.quantile(q), h.min());
        EXPECT_LE(h.quantile(q), h.max());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

} // namespace
} // namespace umany
