/**
 * @file
 * Generative model of the Alibaba production-trace statistics the
 * paper's characterization uses (§3.2–§3.3):
 *   Fig 2 — bursty per-server request rates (median ≈500 RPS, 20%
 *           of seconds ≥1000 RPS, 5% ≥1500 RPS),
 *   Fig 4 — per-request CPU utilization (median ≈14%, p99 < 60%),
 *   Fig 5 — RPC invocations per request (median ≈4.2, ≈5% ≥16).
 *
 * The original traces are proprietary; this model is calibrated to
 * the published distributions and exercises the same code paths
 * (see DESIGN.md §2).
 */

#ifndef UMANY_WORKLOAD_ALIBABA_HH
#define UMANY_WORKLOAD_ALIBABA_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "stats/cdf.hh"

namespace umany
{

/** Calibration of the generative trace model. */
struct AlibabaParams
{
    /** MMPP states for the arrival process (rates sum to the Fig 2
     *  shape when mixed by stay time). */
    std::vector<Mmpp::State> arrivalStates = {
        {150.0, 2.0}, {450.0, 5.0}, {700.0, 3.0},
        {1250.0, 2.2}, {1800.0, 0.8},
    };
    /** Lognormal CPU-utilization-per-request model. */
    double utilMedian = 0.14;
    double utilSigma = 0.55;
    /** Lognormal RPC-count model. */
    double rpcMedian = 4.2;
    double rpcSigma = 0.82;
};

/** Draws per-request samples and arrival processes from the model. */
class AlibabaModel
{
  public:
    explicit AlibabaModel(std::uint64_t seed,
                          const AlibabaParams &p = {});

    /** CPU utilization of one dynamic request, in [0, 1]. */
    double sampleCpuUtil();

    /** Number of RPC invocations of one dynamic request (>= 0). */
    std::uint32_t sampleRpcCount();

    /** A fresh bursty arrival process (arrivals per second). */
    Mmpp makeArrivalProcess();

    /**
     * Simulate @p seconds of arrivals and return the per-second
     * request counts (the Fig 2 sample set).
     */
    std::vector<std::uint32_t> perSecondRates(std::uint32_t seconds);

    const AlibabaParams &params() const { return p_; }

  private:
    AlibabaParams p_;
    Rng rng_;
};

} // namespace umany

#endif // UMANY_WORKLOAD_ALIBABA_HH
