/**
 * @file
 * Coherence-scope model (Section 4.1).
 *
 * μManycore supports hardware coherence only inside a village;
 * ScaleOut/ServerClass are globally coherent. The model quantifies
 * the cache warm-up cost when a blocked request resumes on a
 * different core: cheap within a shared-L2 village, a remote fetch
 * over the ICN under global coherence. The machine charges the
 * directory's per-miss stalls through its own MachineParams.
 */

#ifndef UMANY_MEM_COHERENCE_HH
#define UMANY_MEM_COHERENCE_HH

#include <cstdint>

#include "sim/types.hh"

namespace umany
{

/** Scope of hardware cache coherence. */
enum class CoherenceScope : std::uint8_t
{
    Village, //!< μManycore: coherent only within a village.
    Global,  //!< Baselines: package-wide directory coherence.
};

/** Coherence model parameters. */
struct CoherenceParams
{
    CoherenceScope scope = CoherenceScope::Village;
    /**
     * Fraction of a request's warm working set that must be
     * re-fetched when it resumes on a core outside its previous
     * coherence-local neighbourhood.
     */
    double migrationRefetchFraction = 0.50;
    /** Typical warm working set of an in-flight request (bytes). */
    std::uint64_t warmSetBytes = 64 * 1024;
};

/** Answers coherence-cost queries for one machine configuration. */
class CoherenceModel
{
  public:
    explicit CoherenceModel(const CoherenceParams &p) : p_(p) {}

    const CoherenceParams &params() const { return p_; }
    CoherenceScope scope() const { return p_.scope; }

    /**
     * Bytes that must move over the interconnect when a request
     * resumes on a different core.
     *
     * @param same_l2 The new core shares an L2 (same village /
     *        cluster slice) with the old one.
     */
    std::uint64_t migrationBytes(bool same_l2) const;

  private:
    CoherenceParams p_;
};

} // namespace umany

#endif // UMANY_MEM_COHERENCE_HH
