/**
 * @file
 * Tests for the workload models: service catalog, social-network
 * graph, synthetic distributions, Alibaba generative model and load
 * generator.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "stats/cdf.hh"
#include "stats/summary.hh"
#include "workload/alibaba.hh"
#include "workload/app_graph.hh"
#include "workload/loadgen.hh"
#include "workload/synthetic.hh"

namespace umany
{
namespace
{

TEST(ServiceCatalog, AssignsDenseIds)
{
    ServiceCatalog cat;
    ServiceSpec s;
    s.name = "a";
    s.makeBehavior = [](Rng &) { return Behavior{{1}, {}}; };
    const ServiceId a = cat.add(s);
    s.name = "b";
    const ServiceId b = cat.add(s);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(cat.size(), 2u);
    EXPECT_EQ(cat.byName("b")->id, b);
    EXPECT_EQ(cat.byName("zzz"), nullptr);
}

TEST(ServiceCatalogDeathTest, MissingGeneratorIsFatal)
{
    ServiceCatalog cat;
    ServiceSpec s;
    s.name = "broken";
    EXPECT_DEATH(cat.add(s), "behaviour generator");
}

TEST(SocialNetwork, HasAllEightEndpoints)
{
    const ServiceCatalog cat = buildSocialNetwork();
    const auto eps = cat.endpoints();
    EXPECT_EQ(eps.size(), 8u);
    for (const char *name : socialNetworkEndpointNames)
        EXPECT_NE(cat.byName(name), nullptr) << name;
}

TEST(SocialNetwork, BehavioursAreWellFormed)
{
    const ServiceCatalog cat = buildSocialNetwork();
    Rng rng(1);
    for (ServiceId s = 0; s < cat.size(); ++s) {
        for (int i = 0; i < 50; ++i) {
            const Behavior b = cat.makeBehavior(s, rng);
            EXPECT_TRUE(b.wellFormed());
            EXPECT_GT(b.totalWork(), 0u);
        }
    }
}

TEST(SocialNetwork, CPostIsTheHeaviestEndpoint)
{
    const ServiceCatalog cat = buildSocialNetwork();
    Rng rng(2);
    std::map<std::string, double> work;
    for (const ServiceId ep : cat.endpoints()) {
        Summary s;
        for (int i = 0; i < 200; ++i)
            s.add(static_cast<double>(
                cat.makeBehavior(ep, rng).totalWork()));
        work[cat.at(ep).name] = s.mean();
    }
    for (const auto &[name, w] : work) {
        if (name != "CPost") {
            EXPECT_GT(work["CPost"], w) << name;
        }
    }
    EXPECT_LT(work["UrlShort"], work["HomeT"]);
}

TEST(SocialNetwork, NestedCalleesResolve)
{
    const ServiceCatalog cat = buildSocialNetwork();
    Rng rng(3);
    // Every Service call in every behaviour must reference a valid
    // service id.
    for (ServiceId s = 0; s < cat.size(); ++s) {
        for (int i = 0; i < 20; ++i) {
            const Behavior b = cat.makeBehavior(s, rng);
            for (const CallGroup &g : b.groups) {
                for (const CallStep &c : g) {
                    if (c.kind == CallStep::Kind::Service) {
                        EXPECT_LT(c.callee, cat.size());
                    }
                }
            }
        }
    }
}

TEST(Synthetic, CallCountWithinRange)
{
    SyntheticParams p;
    p.minCalls = 2;
    p.maxCalls = 6;
    const ServiceCatalog cat = buildSynthetic(p);
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const Behavior b = cat.makeBehavior(0, rng);
        EXPECT_GE(b.blockingCalls(), 2u);
        EXPECT_LE(b.blockingCalls(), 6u);
        EXPECT_TRUE(b.wellFormed());
    }
}

TEST(Synthetic, DistributionsHaveConfiguredMean)
{
    Rng rng(7);
    for (const SynthDist d : {SynthDist::Exponential,
                              SynthDist::Lognormal,
                              SynthDist::Bimodal}) {
        SyntheticParams p;
        p.dist = d;
        const ServiceCatalog cat = buildSynthetic(p);
        Summary s;
        for (int i = 0; i < 20000; ++i) {
            s.add(toUs(cat.makeBehavior(0, rng).totalWork()));
        }
        // Bimodal mean: 0.87*500 + 0.13*12000 = 1995.
        EXPECT_NEAR(s.mean(), 2000.0, 220.0) << synthDistName(d);
    }
}

TEST(Synthetic, LognormalHasHeaviestTail)
{
    Rng rng(9);
    SyntheticParams pe;
    pe.dist = SynthDist::Exponential;
    SyntheticParams pl;
    pl.dist = SynthDist::Lognormal;
    const ServiceCatalog ce = buildSynthetic(pe);
    const ServiceCatalog cl = buildSynthetic(pl);
    double max_e = 0.0;
    double max_l = 0.0;
    for (int i = 0; i < 20000; ++i) {
        max_e = std::max(max_e,
                         toUs(ce.makeBehavior(0, rng).totalWork()));
        max_l = std::max(max_l,
                         toUs(cl.makeBehavior(0, rng).totalWork()));
    }
    EXPECT_GT(max_l, max_e);
}

TEST(Alibaba, UtilizationAnchors)
{
    AlibabaModel m(1);
    Cdf c;
    for (int i = 0; i < 100000; ++i)
        c.add(m.sampleCpuUtil());
    EXPECT_NEAR(c.quantile(0.5), 0.14, 0.02);
    EXPECT_LT(c.quantile(0.99), 0.65);
    EXPECT_LE(c.max(), 1.0);
}

TEST(Alibaba, RpcCountAnchors)
{
    AlibabaModel m(2);
    Cdf c;
    for (int i = 0; i < 100000; ++i)
        c.add(static_cast<double>(m.sampleRpcCount()));
    EXPECT_NEAR(c.quantile(0.5), 4.2, 0.8);
    EXPECT_NEAR(1.0 - c.at(15.999), 0.05, 0.03);
}

TEST(Alibaba, DurationAnchors)
{
    AlibabaModel m(3);
    int below_1ms = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (m.sampleDurationMs() < 1.0)
            ++below_1ms;
    }
    // Paper: 36.7% of invocations below 1 ms.
    EXPECT_NEAR(below_1ms / static_cast<double>(n), 0.367, 0.03);
}

TEST(Alibaba, RpsBurstAnchors)
{
    AlibabaModel m(4);
    Cdf c;
    for (const std::uint32_t r : m.perSecondRates(3000))
        c.add(static_cast<double>(r));
    EXPECT_NEAR(c.quantile(0.5), 500.0, 150.0);
    EXPECT_NEAR(1.0 - c.at(1000.0), 0.20, 0.08);
}

TEST(LoadGen, PoissonRateAccuracy)
{
    EventQueue eq;
    ServiceCatalog cat = buildSynthetic(SyntheticParams{});
    LoadGenParams p;
    p.rps = 10000.0;
    p.stop = fromSec(1.0);
    std::uint64_t count = 0;
    LoadGenerator gen(eq, cat, p, [&](ServiceId) { ++count; });
    gen.start();
    eq.run();
    EXPECT_NEAR(static_cast<double>(count), 10000.0, 400.0);
    EXPECT_EQ(gen.generated(), count);
}

TEST(LoadGen, BurstyKeepsMeanRate)
{
    EventQueue eq;
    ServiceCatalog cat = buildSynthetic(SyntheticParams{});
    LoadGenParams p;
    p.rps = 10000.0;
    p.kind = ArrivalKind::Bursty;
    p.stop = fromSec(5.0);
    std::uint64_t count = 0;
    LoadGenerator gen(eq, cat, p, [&](ServiceId) { ++count; });
    gen.start();
    eq.run();
    EXPECT_NEAR(static_cast<double>(count) / 5.0, 10000.0, 1500.0);
}

TEST(LoadGen, MixWeightsRespected)
{
    EventQueue eq;
    const ServiceCatalog cat = buildSocialNetwork();
    LoadGenParams p;
    p.rps = 50000.0;
    p.stop = fromSec(1.0);
    std::map<ServiceId, int> counts;
    LoadGenerator gen(eq, cat, p,
                      [&](ServiceId ep) { counts[ep] += 1; });
    gen.start();
    eq.run();
    // Uniform mix weights: every endpoint gets ~1/8.
    for (const ServiceId ep : cat.endpoints()) {
        EXPECT_NEAR(counts[ep] / 50000.0, 0.125, 0.02)
            << cat.at(ep).name;
    }
}

TEST(LoadGen, StopsAtDeadline)
{
    EventQueue eq;
    ServiceCatalog cat = buildSynthetic(SyntheticParams{});
    LoadGenParams p;
    p.rps = 1000.0;
    p.stop = fromMs(100.0);
    Tick last = 0;
    LoadGenerator gen(eq, cat, p, [&](ServiceId) { last = eq.now(); });
    gen.start();
    eq.run();
    EXPECT_LT(last, fromMs(100.0));
}

} // namespace
} // namespace umany
