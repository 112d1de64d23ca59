/**
 * @file
 * Dispatch-policy zoo tests (ISSUE 8): property/fuzz checks of the
 * NIC probing policies against a brute-force reference (the chosen
 * village is always among the d probed and its depth at probe time
 * is minimal among the probes), steal-conservation arithmetic at
 * the HwRq and whole-experiment levels, steals that land and cut
 * the RQ-wait tail past round-robin's knee, the failed-probe cost
 * fix in the software queue system, and the golden-stability gate
 * on the new cluster.sched.* statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "arch/presets.hh"
#include "driver/experiment.hh"
#include "sched/dispatch_policy.hh"
#include "sched/hw_rq.hh"
#include "sched/queue_system.hh"
#include "sched/request.hh"
#include "sim/rng.hh"
#include "stats/stats_dump.hh"
#include "workload/app_graph.hh"

namespace umany
{
namespace
{

Behavior
oneSegment()
{
    Behavior b;
    b.segments = {fromUs(1.0)};
    return b;
}

TEST(DispatchKindParse, RoundTrips)
{
    for (const char *name : {"rr", "po2c", "jsqd", "steal"}) {
        const DispatchKind k = parseDispatchKind(name);
        EXPECT_STREQ(dispatchKindName(k), name);
    }
    EXPECT_EQ(parseDispatchKind("rr"), DispatchKind::RoundRobin);
    EXPECT_EQ(parseDispatchKind("po2c"), DispatchKind::Po2c);
}

TEST(DispatchKindParseDeathTest, UnknownPolicyNamesTheFour)
{
    EXPECT_DEATH(parseDispatchKind("slo"),
                 "unknown dispatch policy 'slo' "
                 "\\(expected rr.po2c.jsqd.steal\\)");
}

/**
 * Brute-force property check of one pick: every probe hit a distinct
 * candidate, the reported depth matches the oracle at probe time,
 * and the choice is the earliest probe of minimal depth.
 */
void
checkPick(const NicDispatchPolicy &policy, VillageId chosen,
          const std::vector<VillageId> &candidates,
          const std::map<VillageId, std::size_t> &depths,
          std::uint32_t d)
{
    const auto &probes = policy.lastProbes();
    const std::size_t expect_probes =
        std::min<std::size_t>(d, candidates.size());
    ASSERT_EQ(probes.size(), expect_probes);

    std::set<VillageId> seen;
    for (const auto &pr : probes) {
        EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                              pr.village) != candidates.end())
            << "probed non-candidate village " << pr.village;
        EXPECT_TRUE(seen.insert(pr.village).second)
            << "village " << pr.village << " probed twice";
        EXPECT_EQ(pr.depth, depths.at(pr.village));
    }

    // Reference decision: earliest probe of minimal depth.
    VillageId want = probes.front().village;
    std::size_t want_depth = probes.front().depth;
    for (const auto &pr : probes) {
        if (pr.depth < want_depth) {
            want = pr.village;
            want_depth = pr.depth;
        }
    }
    EXPECT_EQ(chosen, want);
    // And the chosen village is among the probed set by construction.
    EXPECT_TRUE(seen.count(chosen) == 1);
}

void
fuzzPolicy(DispatchKind kind, std::uint32_t d, std::uint64_t seed,
           int picks)
{
    DispatchPolicyParams p;
    p.kind = kind;
    p.probes = d;
    NicDispatchPolicy policy(p, seed);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::uint64_t expect_issued = 0;

    for (int i = 0; i < picks; ++i) {
        const std::size_t n = 1 + rng.below(12);
        std::vector<VillageId> candidates;
        std::map<VillageId, std::size_t> depths;
        for (std::size_t c = 0; c < n; ++c) {
            // Sparse ids so candidate != index bugs would show.
            const auto v = static_cast<VillageId>(3 * c + 1);
            candidates.push_back(v);
            depths[v] = static_cast<std::size_t>(rng.below(9));
        }
        const VillageId chosen = policy.pick(
            candidates,
            [&](VillageId v) { return depths.at(v); });
        checkPick(policy, chosen, candidates, depths,
                  p.probeCount());
        if (::testing::Test::HasFatalFailure())
            return;
        expect_issued +=
            std::min<std::uint64_t>(p.probeCount(), n);
    }
    EXPECT_EQ(policy.probesIssued(), expect_issued);
}

TEST(NicDispatchPolicyFuzz, Po2cMatchesReference)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull})
        fuzzPolicy(DispatchKind::Po2c, 2, seed, 5000);
}

TEST(NicDispatchPolicyFuzz, JsqdMatchesReferenceForVariousD)
{
    for (const std::uint32_t d : {1u, 3u, 5u, 8u})
        fuzzPolicy(DispatchKind::Jsqd, d, 40 + d, 3000);
}

TEST(NicDispatchPolicyFuzz, Po2cPinsTwoProbesRegardlessOfD)
{
    DispatchPolicyParams p;
    p.kind = DispatchKind::Po2c;
    p.probes = 7; // ignored: po2c is d = 2 by definition
    NicDispatchPolicy policy(p, 99);
    const std::vector<VillageId> cand = {0, 1, 2, 3, 4};
    policy.pick(cand, [](VillageId) { return std::size_t{0}; });
    EXPECT_EQ(policy.lastProbes().size(), 2u);
}

TEST(NicDispatchPolicy, SameSeedSamePickSequence)
{
    DispatchPolicyParams p;
    p.kind = DispatchKind::Jsqd;
    p.probes = 3;
    NicDispatchPolicy a(p, 0x5eed);
    NicDispatchPolicy b(p, 0x5eed);
    const std::vector<VillageId> cand = {0, 1, 2, 3, 4, 5, 6, 7};
    auto depth = [](VillageId v) {
        return static_cast<std::size_t>(v % 3);
    };
    for (int i = 0; i < 200; ++i)
        ASSERT_EQ(a.pick(cand, depth), b.pick(cand, depth))
            << "pick " << i;
    EXPECT_EQ(a.probesIssued(), b.probesIssued());
}

TEST(HwRqSteal, YoungestFirstAndConserved)
{
    HwRqParams p;
    p.entries = 4;
    p.nicBufferEntries = 2;
    HwRq victim(p);
    HwRq thief(p);

    std::vector<std::unique_ptr<ServiceRequest>> pool;
    for (RequestId id = 1; id <= 5; ++id) {
        pool.push_back(std::make_unique<ServiceRequest>(
            id, 0, oneSegment()));
    }
    // Fill the victim: 4 admitted, the 5th lands in the NIC buffer.
    for (std::uint64_t seq = 0; seq < 4; ++seq) {
        ASSERT_EQ(victim.admit(seq, pool[seq].get()),
                  RqAdmit::Admitted);
    }
    ASSERT_EQ(victim.admit(4, pool[4].get()), RqAdmit::Buffered);

    // The steal takes the YOUNGEST ready entry (Corey semantics)
    // and promotes the buffered request into the freed entry.
    ServiceRequest *promoted = nullptr;
    ServiceRequest *stolen = victim.stealYoungest(promoted);
    ASSERT_NE(stolen, nullptr);
    EXPECT_EQ(stolen, pool[3].get()); // seq 3 was the youngest
    ASSERT_NE(promoted, nullptr);
    EXPECT_EQ(promoted, pool[4].get());
    EXPECT_EQ(victim.stealsOut(), 1u);
    thief.adoptStolen();
    EXPECT_EQ(thief.stealsIn(), 1u);
    EXPECT_EQ(thief.inFlight(), 1u);

    // Conservation on both sides:
    //   admitted + stealsIn == completes + stealsOut + inFlight.
    EXPECT_EQ(victim.admitted() + victim.stealsIn(),
              victim.completes() + victim.stealsOut() +
                  victim.inFlight());
    EXPECT_EQ(thief.admitted() + thief.stealsIn(),
              thief.completes() + thief.stealsOut() +
                  thief.inFlight());

    // Drain everything; the identity must hold at quiescence too.
    thief.complete(stolen->service());
    Tick done = 0;
    while (ServiceRequest *req = victim.dequeue(0, done))
        victim.complete(req->service());
    EXPECT_EQ(victim.inFlight(), 0u);
    EXPECT_EQ(victim.admitted() + victim.stealsIn(),
              victim.completes() + victim.stealsOut());
    EXPECT_EQ(thief.admitted() + thief.stealsIn(),
              thief.completes() + thief.stealsOut());
    // An empty ready list yields no steal and no promotion.
    ServiceRequest *none = victim.stealYoungest(promoted);
    EXPECT_EQ(none, nullptr);
    EXPECT_EQ(promoted, nullptr);
    EXPECT_EQ(victim.stealsOut(), 1u);
}

TEST(SwQueueSteal, FailedProbesPayStealCycles)
{
    // Satellite 6: a probe that finds nothing (or collides with the
    // home queue) must still charge stealCycles, so the ledger's
    // RQ-wait/ctx-switch split sees the real cost of empty probing.
    SwQueueParams p;
    p.numQueues = 4;
    p.numCores = 4;
    p.workStealing = true;
    p.stealAttempts = 3;
    p.stealCycles = 300;

    SwQueueSystem stealing(p, 0x5eed);
    SwQueueParams plain = p;
    plain.workStealing = false;
    SwQueueSystem baseline(plain, 0x5eed);

    Tick done_steal = 0;
    Tick done_plain = 0;
    EXPECT_EQ(stealing.dequeue(0, 0, done_steal), nullptr);
    EXPECT_EQ(baseline.dequeue(0, 0, done_plain), nullptr);

    EXPECT_EQ(stealing.stealProbes(), 3u);
    EXPECT_EQ(stealing.steals(), 0u);
    EXPECT_EQ(baseline.stealProbes(), 0u);
    // Every failed probe costs at least stealCycles on top of the
    // lock op, so the stealing core stays busy strictly longer.
    const Tick min_extra = cyclesToTicks(
        static_cast<double>(p.stealCycles) * p.stealAttempts, p.ghz);
    EXPECT_GE(done_steal, done_plain + min_extra);
}

TEST(SwQueueSteal, SelfCollisionStillPays)
{
    // With one queue every "victim" is the home queue; the probes
    // find nothing by definition but the cost is still charged.
    SwQueueParams p;
    p.numQueues = 1;
    p.numCores = 2;
    p.workStealing = true;
    p.stealAttempts = 2;
    p.stealCycles = 300;
    SwQueueSystem qs(p, 7);
    Tick done = 0;
    EXPECT_EQ(qs.dequeue(0, 0, done), nullptr);
    EXPECT_EQ(qs.stealProbes(), 2u);
    EXPECT_EQ(qs.steals(), 0u);
    const Tick min_extra = cyclesToTicks(
        static_cast<double>(p.stealCycles) * p.stealAttempts, p.ghz);
    EXPECT_GE(done, min_extra);
}

/** Small full-stack run under one dispatch policy. */
StatsDump
runPolicy(DispatchKind kind, double rps)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg;
    cfg.machine = uManycoreParams();
    cfg.machine.numCores = 64;
    cfg.machine.coresPerVillage = 8;
    cfg.machine.villagesPerCluster = 4;
    cfg.machine.dispatch.kind = kind;
    cfg.cluster.numServers = 1;
    cfg.rpsPerServer = rps;
    cfg.arrivals = ArrivalKind::Bursty;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(20.0);
    cfg.seed = 0x5eed;
    StatsDump stats;
    runExperiment(cat, cfg, &stats);
    return stats;
}

TEST(DispatchExperiment, StealConservationInStats)
{
    const StatsDump stats = runPolicy(DispatchKind::Steal, 12000.0);
    ASSERT_TRUE(stats.has("cluster.sched.dispatches"));
    ASSERT_TRUE(stats.has("cluster.sched.steals"));
    ASSERT_TRUE(stats.has("cluster.sched.steal_probes"));
    // Conservation: every request a core picked up came either off
    // its home RQ or out of a sibling's (stolen).
    EXPECT_EQ(stats.value("cluster.sched.dispatches"),
              stats.value("cluster.sched.direct_dispatches") +
                  stats.value("cluster.sched.steals"));
    // Probes are a superset of successful steals.
    EXPECT_GE(stats.value("cluster.sched.steal_probes"),
              stats.value("cluster.sched.steals"));
    EXPECT_GT(stats.value("cluster.sched.dispatches"), 0.0);
}

/**
 * fig_policy_race's machine (μManycore, 25% big villages, Poisson
 * arrivals, seed 1) on one server at 300K RPS, past round-robin's
 * knee, with the ledger on. Fills @p stats and returns the P99.9 of
 * the RQ-wait critical-path component in µs, as the bench prints
 * it.
 */
double
saturatedRqWaitP999Us(DispatchKind kind, StatsDump &stats)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg;
    cfg.machine = uManycoreParams();
    cfg.machine.bigVillageFraction = 0.25;
    cfg.machine.dispatch.kind = kind;
    cfg.cluster.numServers = 1;
    cfg.rpsPerServer = 300000.0;
    cfg.arrivals = ArrivalKind::Poisson;
    cfg.warmup = fromMs(2.0);
    cfg.measure = fromMs(20.0);
    cfg.seed = 1;
    cfg.obs.attrib = true;
    AttribResult attrib;
    runExperiment(cat, cfg, &stats, &attrib);
    Histogram wait;
    for (const auto &[ep, profile] : attrib.profiler.endpoints()) {
        wait.merge(profile.pathTicks[static_cast<std::size_t>(
            AttribComp::RqWait)]);
    }
    return static_cast<double>(wait.quantile(0.999)) / tickPerUs;
}

TEST(DispatchExperiment, StealLandsAndCutsRqWaitTailPastTheKnee)
{
    // At 12K RPS no village has ready work to steal; at 300K the
    // round-robin RQs back up, idle cores steal, and the RQ-wait
    // tail falls several-fold (243 against 1,543 us at seed 1;
    // 161-243 against 1,527-1,997 us over seeds 1-4).
    StatsDump rr;
    StatsDump steal;
    const double rr_wait =
        saturatedRqWaitP999Us(DispatchKind::RoundRobin, rr);
    const double steal_wait =
        saturatedRqWaitP999Us(DispatchKind::Steal, steal);
    EXPECT_GT(steal.value("cluster.sched.steals"), 0.0);
    EXPECT_EQ(steal.value("cluster.sched.dispatches"),
              steal.value("cluster.sched.direct_dispatches") +
                  steal.value("cluster.sched.steals"));
    EXPECT_LT(steal_wait, 0.5 * rr_wait)
        << "steal " << steal_wait << " us vs rr " << rr_wait << " us";
}

TEST(DispatchExperiment, RoundRobinHidesPolicyStats)
{
    // The golden-stability gate: under the default policy none of
    // the new statistics appear, so every pre-existing golden stays
    // byte-identical.
    const StatsDump stats =
        runPolicy(DispatchKind::RoundRobin, 4000.0);
    EXPECT_FALSE(stats.has("cluster.sched.dispatches"));
    EXPECT_FALSE(stats.has("cluster.sched.steals"));
    EXPECT_FALSE(stats.has("server0.sched.steals"));
}

TEST(DispatchExperiment, EveryPolicyIsSeedStable)
{
    for (const DispatchKind kind :
         {DispatchKind::Po2c, DispatchKind::Jsqd,
          DispatchKind::Steal}) {
        const std::string a =
            runPolicy(kind, 8000.0).formatJson();
        const std::string b =
            runPolicy(kind, 8000.0).formatJson();
        EXPECT_EQ(a, b) << "policy " << dispatchKindName(kind)
                        << " is not replay-stable";
    }
}

} // namespace
} // namespace umany
