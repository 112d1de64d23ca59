#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace umany
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
streamSeed(std::uint64_t base, std::uint64_t salt)
{
    // Run the (base, salt) pair through two splitmix64 rounds so
    // nearby salts map to statistically unrelated seeds.
    std::uint64_t x = base ^ (salt * 0xd1342543de82ef95ull);
    std::uint64_t out = splitmix64(x);
    out ^= splitmix64(x);
    return out;
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::below(0)");
    // Rejection-free modulo is fine for our n << 2^64 use cases.
    return next() % n;
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

double
Rng::expMean(double mean)
{
    double u = uniform();
    // Guard against log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u1 = uniform();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    haveSpare_ = true;
    return r * std::cos(theta);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(mu + sigma * gaussian());
}

LognormalDist::LognormalDist(double mean, double sigma)
    : sigma_(sigma)
{
    if (mean <= 0.0)
        fatal("lognormal mean must be positive (got %f)", mean);
    // E[lognormal] = exp(mu + sigma^2/2)  =>  solve for mu.
    mu_ = std::log(mean) - 0.5 * sigma * sigma;
}

double
LognormalDist::sample(Rng &rng) const
{
    return rng.lognormal(mu_, sigma_);
}

Mmpp::Mmpp(std::vector<State> states, std::uint64_t seed)
    : states_(std::move(states)), rng_(seed)
{
    if (states_.empty())
        fatal("MMPP needs at least one state");
    for (const auto &s : states_) {
        if (s.rate < 0.0 || s.meanStay <= 0.0)
            fatal("MMPP state needs rate >= 0 and meanStay > 0");
    }
    enterRandomState();
}

void
Mmpp::enterRandomState()
{
    state_ = static_cast<std::size_t>(rng_.below(states_.size()));
    stateTimeLeft_ = rng_.expMean(states_[state_].meanStay);
}

double
Mmpp::nextInterarrival()
{
    double waited = 0.0;
    for (;;) {
        const double rate = states_[state_].rate;
        const double gap =
            rate > 0.0 ? rng_.expMean(1.0 / rate) : stateTimeLeft_ + 1.0;
        if (gap <= stateTimeLeft_) {
            stateTimeLeft_ -= gap;
            return waited + gap;
        }
        // State expires before the next arrival; roll into the next
        // state and keep accumulating waiting time.
        waited += stateTimeLeft_;
        enterRandomState();
    }
}

double
Mmpp::averageRate() const
{
    double weighted = 0.0;
    double stay = 0.0;
    for (const auto &s : states_) {
        weighted += s.rate * s.meanStay;
        stay += s.meanStay;
    }
    return weighted / stay;
}

} // namespace umany
