/**
 * @file
 * Pluggable dispatch policies (ROADMAP "scheduling-policy zoo").
 *
 * The paper's hardware dispatch walks the ServiceMap round-robin;
 * this module makes the placement decision a policy:
 *
 *  - RoundRobin: the paper's default, byte-identical to the seed.
 *  - Po2c: power-of-two-choices — probe 2 random candidate
 *    villages' RQ depth, dispatch to the shallower (nanoPU-style
 *    NIC-side placement).
 *  - Jsqd: JSQ(d) — same as Po2c with a configurable probe count d.
 *  - Steal: keep round-robin placement but let idle cores steal the
 *    youngest ready entry from sibling villages' RQs (the sv6/Corey
 *    per-CPU schedule::steal() design).
 *
 * Probe/steal costs are explicit so the policies pay for the state
 * they inspect; the NIC-side probing logic lives here so it can be
 * fuzzed against a brute-force reference model in isolation.
 */

#ifndef UMANY_SCHED_DISPATCH_POLICY_HH
#define UMANY_SCHED_DISPATCH_POLICY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace umany
{

class Config;

/** Which dispatch/scheduling policy the machine runs. */
enum class DispatchKind : std::uint8_t
{
    RoundRobin, //!< ServiceMap walk (the paper's hardware dispatch).
    Po2c,       //!< Power-of-two-choices at the NIC.
    Jsqd,       //!< JSQ(d): probe d candidates, join the shortest.
    Steal,      //!< RR placement + idle-core work stealing.
};

/** Parse "rr|po2c|jsqd|steal" (fatal on anything else). */
DispatchKind parseDispatchKind(const std::string &name);

/** Flag spelling of a policy kind. */
const char *dispatchKindName(DispatchKind kind);

/** Configuration of the dispatch policy (MachineParams.dispatch). */
struct DispatchPolicyParams
{
    DispatchKind kind = DispatchKind::RoundRobin;
    /** Probe count d for Jsqd (Po2c always probes 2). */
    std::uint32_t probes = 2;
    /** NIC-side cost per RQ-depth probe. */
    Cycles probeCycles = 8;
    /** Sibling RQs an idle core probes before giving up (Steal). */
    std::uint32_t stealAttempts = 2;
    /** Cost per steal probe, charged on failure too. */
    Cycles stealCycles = 64;

    /** Effective probe count (Po2c pins d = 2). */
    std::uint32_t
    probeCount() const
    {
        return kind == DispatchKind::Po2c ? 2u : probes;
    }

    /** Whether the NIC probes queue depths before dispatching. */
    bool
    probing() const
    {
        return kind == DispatchKind::Po2c ||
               kind == DispatchKind::Jsqd;
    }
};

/**
 * Parse the policy flags shared by every bench and example:
 * `dispatch=rr|po2c|jsqd|steal`, `dispatch_probes=`,
 * `dispatch_probe_cycles=`, `steal_attempts=`, `steal_cycles=`.
 * Unset keys keep @p defaults; out-of-range values are fatal.
 */
DispatchPolicyParams
dispatchParamsFromConfig(const Config &cfg,
                         const DispatchPolicyParams &defaults = {});

/**
 * The NIC-side probing picker for Po2c/Jsqd: choose up to d distinct
 * candidate villages uniformly at random, read each one's queue
 * depth, and dispatch to the minimum (ties break toward the earliest
 * probe). Draw count per pick is exactly min(d, candidates), so the
 * policy's RNG stream is deterministic under replay.
 */
class NicDispatchPolicy
{
  public:
    /** One depth probe as seen at decision time (for testing). */
    struct Probe
    {
        VillageId village;
        std::size_t depth;
    };

    using DepthFn = std::function<std::size_t(VillageId)>;

    NicDispatchPolicy(const DispatchPolicyParams &p,
                      std::uint64_t seed);

    const DispatchPolicyParams &params() const { return p_; }

    /**
     * Pick a destination among @p candidates (instances of one
     * service, never empty), probing depths via @p depth_of.
     */
    VillageId pick(const std::vector<VillageId> &candidates,
                   const DepthFn &depth_of);

    /** Probes issued by the most recent pick(), in probe order. */
    const std::vector<Probe> &lastProbes() const { return probes_; }

    /** Total depth probes issued (cost accounting). */
    std::uint64_t probesIssued() const { return probesIssued_; }

  private:
    DispatchPolicyParams p_;
    Rng rng_;
    std::vector<Probe> probes_;
    std::vector<std::uint32_t> scratch_; //!< Partial Fisher-Yates.
    std::uint64_t probesIssued_ = 0;
};

} // namespace umany

#endif // UMANY_SCHED_DISPATCH_POLICY_HH
