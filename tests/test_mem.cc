/**
 * @file
 * Tests for the memory pool, the coherence model, and the footprint
 * generator.
 */

#include <gtest/gtest.h>

#include "mem/coherence.hh"
#include "mem/footprint.hh"
#include "mem/memory_pool.hh"

namespace umany
{
namespace
{

TEST(MemoryPool, SnapshotLifecycle)
{
    MemoryPoolParams p;
    p.capacityBytes = 64 << 20;
    MemoryPool pool(p);
    EXPECT_TRUE(pool.storeSnapshot(1, 16 << 20));
    EXPECT_TRUE(pool.hasSnapshot(1));
    EXPECT_EQ(pool.snapshotBytes(1), 16u << 20);
    EXPECT_TRUE(pool.storeSnapshot(2, 32 << 20));
    // 48 MB used; a 32 MB snapshot no longer fits.
    EXPECT_FALSE(pool.storeSnapshot(3, 32 << 20));
    pool.dropSnapshot(1);
    EXPECT_TRUE(pool.storeSnapshot(3, 32 << 20));
    EXPECT_EQ(pool.usedBytes(), 64u << 20);
}

TEST(MemoryPool, DuplicateStoreIsIdempotent)
{
    MemoryPool pool{MemoryPoolParams{}};
    EXPECT_TRUE(pool.storeSnapshot(7, 1 << 20));
    const std::uint64_t used = pool.usedBytes();
    EXPECT_TRUE(pool.storeSnapshot(7, 1 << 20));
    EXPECT_EQ(pool.usedBytes(), used);
}

TEST(MemoryPool, TransfersSerializeOnEngine)
{
    MemoryPool pool{MemoryPoolParams{}};
    const Tick a = pool.lmemTransfer(0, 1 << 20);
    const Tick b = pool.lmemTransfer(0, 1 << 20);
    EXPECT_GT(b, a);
    // R-MEM is an independent engine: it does not queue behind the
    // two L-MEM transfers above.
    const Tick c = pool.rmemTransfer(0, 1 << 20);
    MemoryPool fresh{MemoryPoolParams{}};
    EXPECT_EQ(c, fresh.rmemTransfer(0, 1 << 20));
    EXPECT_EQ(pool.transfers(), 3u);
}

TEST(MemoryPool, BandwidthScalesTransferTime)
{
    MemoryPoolParams p;
    MemoryPool pool(p);
    const Tick small = pool.lmemTransfer(0, 1 << 10);
    MemoryPool pool2(p);
    const Tick big = pool2.lmemTransfer(0, 1 << 24);
    EXPECT_GT(big, small);
}

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
