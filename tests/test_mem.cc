/**
 * @file
 * Tests for the coherence model and the footprint generator.
 */

#include <gtest/gtest.h>

#include "mem/coherence.hh"
#include "mem/footprint.hh"

namespace umany
{
namespace
{

TEST(Coherence, VillageScopeRestrictsMigration)
{
    CoherenceParams p;
    p.scope = CoherenceScope::Village;
    CoherenceModel m(p);
    EXPECT_TRUE(m.migrationAllowed(3, 3));
    EXPECT_FALSE(m.migrationAllowed(3, 4));
    EXPECT_EQ(m.directoryOverhead(), 0u);
}

TEST(Coherence, GlobalScopeAllowsMigrationAtACost)
{
    CoherenceParams p;
    p.scope = CoherenceScope::Global;
    CoherenceModel m(p);
    EXPECT_TRUE(m.migrationAllowed(3, 4));
    EXPECT_GT(m.directoryOverhead(), 0u);
    EXPECT_GT(m.migrationBytes(false), 0u);
    EXPECT_EQ(m.migrationBytes(true), 0u);
}

TEST(Footprint, HandlerSharingInPaperBand)
{
    FootprintGenerator gen(FootprintProfile{}, 42);
    const Footprint a = gen.makeHandler();
    const Footprint b = gen.makeHandler();
    const double d_line =
        FootprintGenerator::commonFraction(a.dataLines, b.dataLines);
    const double i_line = FootprintGenerator::commonFraction(
        a.instrLines, b.instrLines);
    // Fig 8: 78-99% common.
    EXPECT_GT(d_line, 0.70);
    EXPECT_LT(d_line, 1.0);
    EXPECT_GT(i_line, 0.85);
}

TEST(Footprint, InitCoversHandlers)
{
    FootprintGenerator gen(FootprintProfile{}, 43);
    const Footprint init = gen.initFootprint();
    const Footprint h = gen.makeHandler();
    const double frac = FootprintGenerator::commonFraction(
        h.instrPages(), init.instrPages());
    EXPECT_GT(frac, 0.9);
}

TEST(Footprint, SizeNearHalfMegabyte)
{
    FootprintGenerator gen(FootprintProfile{}, 44);
    const std::uint64_t bytes = gen.makeHandler().bytes();
    EXPECT_GT(bytes, 300u << 10);
    EXPECT_LT(bytes, 700u << 10);
}

TEST(Footprint, CommonFractionEdgeCases)
{
    std::vector<std::uint64_t> a{1, 2, 3};
    std::vector<std::uint64_t> empty;
    EXPECT_EQ(FootprintGenerator::commonFraction(a, a), 1.0);
    EXPECT_EQ(FootprintGenerator::commonFraction(a, empty), 0.0);
    EXPECT_EQ(FootprintGenerator::commonFraction(empty, a), 0.0);
}

TEST(Footprint, PagesDeriveFromLines)
{
    Footprint fp;
    fp.dataLines = {0, 1, 63, 64, 128};
    // Lines 0,1,63 -> page 0; 64-127 -> page 1; 128 -> page 2.
    EXPECT_EQ(fp.dataPages().size(), 3u);
}

} // namespace
} // namespace umany
