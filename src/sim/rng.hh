/**
 * @file
 * Deterministic random number generation and the service-time /
 * arrival distributions used throughout the evaluation.
 *
 * The generator is xoshiro256++ seeded via splitmix64, so every
 * experiment is reproducible from a single 64-bit seed.
 */

#ifndef UMANY_SIM_RNG_HH
#define UMANY_SIM_RNG_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace umany
{

/**
 * Derive an independent stream seed from a base seed and a component
 * salt. Components that draw random numbers (load generator arrivals,
 * endpoint picks, service-time behaviors, network routing, ...) seed
 * their generators via distinct salts so that adding or removing
 * draws in one subsystem never perturbs another subsystem's sequence
 * (which would invalidate golden regression outputs).
 */
std::uint64_t streamSeed(std::uint64_t base, std::uint64_t salt);

/** Well-known component salts for streamSeed(). */
namespace rngstream
{
constexpr std::uint64_t arrival = 0x41525249u;    //!< "ARRI"
constexpr std::uint64_t endpoint = 0x454e4450u;   //!< "ENDP"
constexpr std::uint64_t burst = 0x42525354u;      //!< "BRST"
constexpr std::uint64_t behavior = 0x42454856u;   //!< "BEHV"
constexpr std::uint64_t placement = 0x504c4143u;  //!< "PLAC"
constexpr std::uint64_t server = 0x53525652u;     //!< "SRVR" (+id)
constexpr std::uint64_t network = 0x4e4f4332u;    //!< "NOC2"
constexpr std::uint64_t swqueue = 0x53575130u;    //!< "SWQ0"
constexpr std::uint64_t rnic = 0x524e4943u;       //!< "RNIC"
constexpr std::uint64_t coherence = 0x44495254u;  //!< "DIRT"
constexpr std::uint64_t fault = 0x464c5430u;      //!< "FLT0"
constexpr std::uint64_t dispatch = 0x44535043u;   //!< "DSPC"
constexpr std::uint64_t package = 0x504b4730u;    //!< "PKG0" (+id)
constexpr std::uint64_t replica = 0x5245504cu;    //!< "REPL"
} // namespace rngstream

/** xoshiro256++ PRNG with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Bernoulli trial with probability @p p of true. */
    bool chance(double p);

    /** Exponential variate with the given mean. */
    double expMean(double mean);

    /** Standard normal variate (Box-Muller). */
    double gaussian();

    /** Lognormal variate parameterized by underlying mu/sigma. */
    double lognormal(double mu, double sigma);

  private:
    std::uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

/**
 * Lognormal distribution specified by its actual mean and the sigma
 * of the underlying normal (heavier tail for larger sigma).
 */
class LognormalDist
{
  public:
    LognormalDist(double mean, double sigma);
    /** Draw one sample (never negative). */
    double sample(Rng &rng) const;

  private:
    double mu_;
    double sigma_;
};

/**
 * Markov-Modulated Poisson Process used to generate bursty request
 * arrivals (Section 3.2's characterization): the process moves among
 * a small number of states, each with its own Poisson rate.
 */
class Mmpp
{
  public:
    struct State
    {
        double rate;      //!< Arrivals per second in this state.
        double meanStay;  //!< Mean sojourn time in seconds.
    };

    Mmpp(std::vector<State> states, std::uint64_t seed);

    /** Time (seconds) until the next arrival. */
    double nextInterarrival();

    /** Rate of the current state (arrivals/sec). */
    double currentRate() const { return states_[state_].rate; }

    /** Long-run average rate (stay-time-weighted). */
    double averageRate() const;

  private:
    std::vector<State> states_;
    Rng rng_;
    std::size_t state_ = 0;
    double stateTimeLeft_ = 0.0;

    void enterRandomState();
};

} // namespace umany

#endif // UMANY_SIM_RNG_HH
