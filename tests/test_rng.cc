/**
 * @file
 * Unit tests for the RNG and the service-time / arrival
 * distributions.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hh"

namespace umany
{
namespace
{

TEST(Rng, DeterministicForFixedSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.expMean(3.5);
    EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = r.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Distributions, LognormalMeanMatches)
{
    Rng r(17);
    LognormalDist d(10.0, 0.8);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += d.sample(r);
    EXPECT_NEAR(sum / n, 10.0, 0.4);
}

TEST(Mmpp, AverageRateApproximatelyHolds)
{
    Mmpp proc({{100.0, 0.5}, {1000.0, 0.5}}, 77);
    EXPECT_NEAR(proc.averageRate(), 550.0, 1e-9);
    // Count arrivals over simulated 50 seconds.
    double t = 0.0;
    std::uint64_t n = 0;
    while (t < 50.0) {
        t += proc.nextInterarrival();
        ++n;
    }
    EXPECT_NEAR(static_cast<double>(n) / 50.0, 550.0, 120.0);
}

TEST(Mmpp, BurstierThanPoisson)
{
    // Per-second counts from an MMPP should have a higher
    // coefficient of variation than a Poisson process of equal
    // average rate.
    Mmpp proc({{100.0, 0.2}, {2000.0, 0.2}}, 99);
    std::vector<double> counts(200, 0.0);
    double t = proc.nextInterarrival();
    while (t < 200.0) {
        counts[static_cast<std::size_t>(t)] += 1.0;
        t += proc.nextInterarrival();
    }
    double mean = 0.0;
    for (const double c : counts)
        mean += c;
    mean /= counts.size();
    double var = 0.0;
    for (const double c : counts)
        var += (c - mean) * (c - mean);
    var /= counts.size();
    // Poisson would have var ~= mean; MMPP should far exceed it.
    EXPECT_GT(var, 3.0 * mean);
}

} // namespace
} // namespace umany
