/**
 * @file
 * Log-bucketed histogram with percentile queries (HDR-style).
 *
 * Latency distributions in this repo span 5+ orders of magnitude
 * (sub-microsecond NoC hops to tens-of-milliseconds saturated tails),
 * so buckets are log-spaced with 64 linear sub-buckets per octave,
 * giving <= ~1.6% relative error on any percentile while using O(KB)
 * of memory regardless of sample count.
 */

#ifndef UMANY_STATS_HISTOGRAM_HH
#define UMANY_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace umany
{

/** Histogram over non-negative 64-bit values. */
class Histogram
{
  public:
    /** Octaves above the exact range in the default layout; covers
     *  any 64-bit value. */
    static constexpr int defaultOctaves = 60;

    /**
     * @param octaves Log-bucket octaves above the exact sub-64
     * range. Smaller layouts save memory when the value range is
     * known (adding a value beyond the range is fatal); histograms
     * of different octave counts merge fine (see merge()).
     */
    explicit Histogram(int octaves = defaultOctaves);

    /** Record one sample. */
    void add(std::uint64_t value);

    /** Record @p n identical samples. */
    void add(std::uint64_t value, std::uint64_t n);

    /** Number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** Mean of recorded samples (0 when empty). */
    double mean() const;

    /** Smallest recorded sample (0 when empty). */
    std::uint64_t min() const { return count_ ? min_ : 0; }

    /** Largest recorded sample (0 when empty). */
    std::uint64_t max() const { return count_ ? max_ : 0; }

    /**
     * Value at quantile @p q in [0, 1]; e.g. 0.99 for P99.
     * Returns the representative (upper-edge) value of the bucket
     * containing the quantile. 0 when empty.
     */
    std::uint64_t quantile(double q) const;

    /** Convenience: 99th percentile. */
    std::uint64_t p99() const { return quantile(0.99); }

    /** Convenience: 50th percentile. */
    std::uint64_t p50() const { return quantile(0.50); }

    /**
     * Merge another histogram into this one. Layouts may differ in
     * octave count (see the constructor): this histogram grows to
     * the larger of the two layouts, so no bucket of @p other is
     * ever dropped or read out of range.
     */
    void merge(const Histogram &other);

  private:
    // 64 sub-buckets per octave; values < 64 are exact.
    static constexpr int subBucketBits = 6;
    static constexpr std::uint64_t subBucketCount = 1ull << subBucketBits;

    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    double sum_ = 0.0;

    static std::size_t indexFor(std::uint64_t value);
    static std::uint64_t valueFor(std::size_t index);
};

} // namespace umany

#endif // UMANY_STATS_HISTOGRAM_HH
