/**
 * @file
 * Tests for the cache, TLB, replacement policies, and hierarchy.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"
#include "sim/rng.hh"

namespace umany
{
namespace
{

CacheParams
smallCache()
{
    return CacheParams{"c", 4096, 4, 64, 2}; // 16 sets x 4 ways
}

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000 + 63)); // same line
    EXPECT_FALSE(c.access(0x1000 + 64)); // next line
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(smallCache());
    // Fill one set (same set index, different tags).
    const std::uint64_t set_stride = 16 * 64; // sets * line
    for (std::uint64_t w = 0; w < 4; ++w)
        c.access(w * set_stride);
    // Touch line 0 to make line 1 the LRU.
    c.access(0);
    // Insert a 5th line: must evict line 1.
    c.access(4 * set_stride);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(set_stride));
    EXPECT_TRUE(c.contains(4 * set_stride));
}

TEST(Cache, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup)
{
    Cache c(CacheParams{"c", 64 * 1024, 8, 64, 2});
    Rng rng(1);
    std::vector<std::uint64_t> ws;
    for (int i = 0; i < 256; ++i)
        ws.push_back(rng.below(1 << 20) * 64);
    for (const std::uint64_t a : ws)
        c.access(a);
    const std::uint64_t warm_misses = c.misses();
    for (int r = 0; r < 10; ++r) {
        for (const std::uint64_t a : ws)
            c.access(a);
    }
    EXPECT_EQ(c.misses(), warm_misses);
}

TEST(Cache, FillDoesNotCountAccess)
{
    Cache c(smallCache());
    c.fill(0x9000);
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.access(0x9000));
}

TEST(CacheDeathTest, BadGeometryIsFatal)
{
    CacheParams p;
    p.sizeBytes = 5 * 64; // 5 lines cannot split into 3 ways
    p.ways = 3;
    p.lineBytes = 64;
    EXPECT_DEATH({ Cache c(p); }, "divisible");
}

TEST(ReplacementPolicy, ProfileGuidedProtectsHotLines)
{
    // Hot line must survive a scan that would evict it under LRU.
    std::unordered_set<std::uint64_t> hot{0}; // line address 0
    Cache lru(smallCache());
    Cache rip(smallCache(),
              std::make_unique<ProfileGuidedPolicy>(hot));
    const std::uint64_t set_stride = 16 * 64;
    lru.access(0);
    rip.access(0);
    // Scan 8 conflicting lines.
    for (std::uint64_t w = 1; w <= 8; ++w) {
        lru.access(w * set_stride);
        rip.access(w * set_stride);
    }
    EXPECT_FALSE(lru.contains(0));
    EXPECT_TRUE(rip.contains(0));
}

TEST(Tlb, TracksPages)
{
    TlbParams p;
    p.entries = 8;
    p.ways = 4;
    Tlb tlb(p);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1FFF)); // same 4 KB page
    EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, NonDivisibleEntriesRoundDown)
{
    TlbParams p;
    p.entries = 2048;
    p.ways = 12; // Table 2's L2 DTLB
    Tlb tlb(p);  // must not die
    EXPECT_FALSE(tlb.access(0));
}

TEST(Hierarchy, L1HitIsCheapest)
{
    CacheHierarchy h(serverClassHierarchyParams());
    const Cycles first = h.access(0x5000, false);
    const Cycles second = h.access(0x5000, false);
    EXPECT_GT(first, second);
    EXPECT_EQ(second, 2u); // L1 round trip per Table 2.
}

TEST(Hierarchy, ServerClassHasL3)
{
    CacheHierarchy h(serverClassHierarchyParams());
    EXPECT_NE(h.l3(), nullptr);
    EXPECT_NE(h.l2tlb(), nullptr);
}

TEST(Hierarchy, MissRatesTrackAccesses)
{
    CacheHierarchy h(serverClassHierarchyParams());
    Rng rng(11);
    for (int i = 0; i < 20000; ++i)
        h.access(rng.below(8 << 20), i % 4 == 0);
    EXPECT_GT(h.l1d().misses(), 0u);
    EXPECT_LE(h.l1d().misses(), h.l1d().accesses());
    EXPECT_GT(h.l1d().accesses(), 0u);
    EXPECT_GT(h.l1i().accesses(), 0u);
    EXPECT_GT(h.l2().accesses(), 0u);
}

} // namespace
} // namespace umany
