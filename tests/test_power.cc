/**
 * @file
 * Tests for the power/area models: technology scaling, CACTI-lite,
 * McPAT-lite, and the iso-power/iso-area package sizing (§5, §6.8).
 */

#include <gtest/gtest.h>

#include "power/budget.hh"
#include "power/cacti_lite.hh"
#include "power/mcpat_lite.hh"
#include "power/tech.hh"

namespace umany
{
namespace
{

TEST(Tech, IdentityScaling)
{
    const TechScaling s = scaleTech(32, 32);
    EXPECT_DOUBLE_EQ(s.areaFactor, 1.0);
    EXPECT_DOUBLE_EQ(s.powerFactor, 1.0);
    EXPECT_DOUBLE_EQ(s.delayFactor, 1.0);
}

TEST(Tech, ShrinkReducesEverything)
{
    const TechScaling s = scaleTech(32, 10);
    EXPECT_LT(s.areaFactor, 0.3);
    EXPECT_LT(s.powerFactor, 0.5);
    EXPECT_LT(s.delayFactor, 1.0);
    EXPECT_GT(s.areaFactor, 0.05);
}

TEST(Tech, ScalingIsMonotoneAcrossNodes)
{
    double prev_area = 10.0;
    for (const int nm : {32, 22, 16, 14, 10, 7}) {
        const TechScaling s = scaleTech(32, nm);
        EXPECT_LT(s.areaFactor, prev_area);
        prev_area = s.areaFactor;
    }
}

TEST(Tech, InverseScalingRoundTrips)
{
    const TechScaling down = scaleTech(32, 10);
    const TechScaling up = scaleTech(10, 32);
    EXPECT_NEAR(down.areaFactor * up.areaFactor, 1.0, 1e-9);
}

TEST(CactiLite, AreaScalesWithCapacity)
{
    SramParams small;
    small.bytes = 64 * 1024;
    SramParams big = small;
    big.bytes = 2 * 1024 * 1024;
    EXPECT_GT(cactiLite(big).areaMm2, cactiLite(small).areaMm2 * 20);
    EXPECT_GT(cactiLite(big).accessNs, cactiLite(small).accessNs);
    EXPECT_GT(cactiLite(big).leakageW, cactiLite(small).leakageW);
}

TEST(CactiLite, TechScalingApplies)
{
    SramParams p32;
    p32.nodeNm = 32;
    SramParams p10 = p32;
    p10.nodeNm = 10;
    EXPECT_LT(cactiLite(p10).areaMm2, cactiLite(p32).areaMm2);
    EXPECT_LT(cactiLite(p10).accessNs, cactiLite(p32).accessNs);
}

TEST(McpatLite, ServerCoreIsMuchHungrier)
{
    const CoreEstimate um = coreWithCachesManycore(10);
    const CoreEstimate sc = coreWithCachesServerClass(10);
    // Paper: 0.408 W vs 10.225 W (25x).
    EXPECT_NEAR(um.powerW, 0.408, 0.12);
    EXPECT_NEAR(sc.powerW, 10.225, 2.5);
    EXPECT_GT(sc.powerW / um.powerW, 15.0);
    EXPECT_GT(sc.areaMm2, 5.0 * um.areaMm2);
}

TEST(McpatLite, PowerMonotoneInFrequency)
{
    CoreParams a = manycoreCoreParams();
    CoreParams b = a;
    b.ghz = 3.0;
    EXPECT_GT(mcpatLite(b, 10).powerW, mcpatLite(a, 10).powerW);
}

TEST(Budget, PackageAreasMatchPaper)
{
    const PackageBudget um = uManycoreBudget();
    const PackageBudget sc40 = serverClassBudget(40);
    // Paper: 547.2 mm^2 vs 176.1 mm^2 (3.1x).
    EXPECT_NEAR(um.totalAreaMm2, 547.2, 80.0);
    EXPECT_NEAR(sc40.totalAreaMm2, 176.1, 35.0);
    EXPECT_NEAR(um.totalAreaMm2 / sc40.totalAreaMm2, 3.1, 0.6);
}

TEST(Budget, IsoPowerNearFortyCores)
{
    const std::uint32_t cores = isoPowerServerClassCores();
    EXPECT_GE(cores, 32u);
    EXPECT_LE(cores, 50u);
}

TEST(Budget, IsoAreaNearOneTwentyEightCores)
{
    const std::uint32_t cores = isoAreaServerClassCores();
    EXPECT_GE(cores, 100u);
    EXPECT_LE(cores, 160u);
}

TEST(Budget, IsoAreaServerClassBurnsMuchMorePower)
{
    const PackageBudget um = uManycoreBudget();
    const PackageBudget sc128 =
        serverClassBudget(isoAreaServerClassCores());
    // Paper: 3.2x more power than uManycore.
    EXPECT_NEAR(sc128.totalW / um.totalW, 3.2, 0.8);
}

} // namespace
} // namespace umany
