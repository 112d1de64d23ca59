#include "stats/histogram.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace umany
{

Histogram::Histogram(int octaves)
{
    if (octaves < 1)
        panic("histogram needs at least one octave (got %d)", octaves);
    counts_.assign(subBucketCount * static_cast<std::size_t>(octaves),
                   0);
}

std::size_t
Histogram::indexFor(std::uint64_t value)
{
    if (value < subBucketCount)
        return static_cast<std::size_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const int octave = msb - subBucketBits + 1;
    const std::uint64_t sub =
        (value >> (msb - subBucketBits)) & (subBucketCount - 1);
    return static_cast<std::size_t>(octave) * subBucketCount +
           static_cast<std::size_t>(sub) + subBucketCount;
}

std::uint64_t
Histogram::valueFor(std::size_t index)
{
    if (index < subBucketCount)
        return index;
    const std::size_t adjusted = index - subBucketCount;
    const int octave = static_cast<int>(adjusted / subBucketCount);
    const std::uint64_t sub = adjusted % subBucketCount;
    const int msb = octave + subBucketBits - 1;
    const std::uint64_t base = (1ull << msb) | (sub << (msb - subBucketBits));
    // Upper edge of the bucket (next representable value - 1).
    return base + (1ull << (msb - subBucketBits)) - 1;
}

void
Histogram::add(std::uint64_t value)
{
    add(value, 1);
}

void
Histogram::add(std::uint64_t value, std::uint64_t n)
{
    if (n == 0)
        return;
    const std::size_t idx = indexFor(value);
    if (idx >= counts_.size())
        panic("histogram index out of range");
    counts_[idx] += n;
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    count_ += n;
    sum_ += static_cast<double>(value) * static_cast<double>(n);
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::uint64_t
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (static_cast<double>(seen) >= target && counts_[i] > 0)
            return std::min(valueFor(i), max_);
    }
    return max_;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    // Layouts share the sub-bucket geometry and differ only in octave
    // count, so a shorter histogram is a prefix of a longer one: grow
    // to the larger layout instead of indexing other.counts_ past its
    // end (or silently dropping its tail buckets).
    if (other.counts_.size() > counts_.size())
        counts_.resize(other.counts_.size(), 0);
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

} // namespace umany
