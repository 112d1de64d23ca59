/**
 * @file
 * Tests for the Fig-1 substrate: branch predictors, prefetchers,
 * trace generation, and the CPI model.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "uarch/gshare.hh"
#include "uarch/ispy_lite.hh"
#include "uarch/perceptron.hh"
#include "uarch/pipeline_model.hh"
#include "uarch/pythia_lite.hh"
#include "uarch/trace_gen.hh"

namespace umany
{
namespace
{

TEST(Gshare, LearnsBiasedBranch)
{
    GsharePredictor bp;
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        if (!bp.step(0x400, true) && i > 10)
            ++wrong;
    }
    EXPECT_EQ(wrong, 0);
}

TEST(Gshare, LearnsShortLoop)
{
    GsharePredictor bp;
    int wrong = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = i % 4 != 3;
        if (!bp.step(0x400, taken) && i > 1000)
            ++wrong;
    }
    EXPECT_LT(wrong, 30);
}

TEST(Perceptron, LearnsLongRangeCorrelation)
{
    PerceptronPredictor bp;
    GsharePredictor gs(14, 12);
    std::uint64_t hist = 0;
    int p_wrong = 0;
    int g_wrong = 0;
    Rng rng(1);
    for (int i = 0; i < 50000; ++i) {
        // Depends on history bit 20 — outside g-share's window.
        const bool noise = rng.chance(0.5);
        const bool taken = i < 32 ? noise : ((hist >> 20) & 1) != 0;
        if (!bp.step(0x80, taken) && i > 5000)
            ++p_wrong;
        if (!gs.step(0x80, taken) && i > 5000)
            ++g_wrong;
        hist = (hist << 1) | (taken ? 1 : 0);
        // Interleave a noise branch so history stays mixed.
        bp.step(0x40, noise);
        gs.step(0x40, noise);
        hist = (hist << 1) | (noise ? 1 : 0);
    }
    EXPECT_LT(p_wrong, 1000);   // perceptron: ~0 errors
    EXPECT_GT(g_wrong, 10000);  // g-share: ~50%
}

TEST(PythiaLite, LearnsToPrefetchStreams)
{
    Cache base(CacheParams{"c", 8192, 4, 64, 2});
    Cache with(CacheParams{"c", 8192, 4, 64, 2});
    PythiaLitePrefetcher pf(3);
    std::uint64_t base_miss = 0;
    std::uint64_t with_miss = 0;
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const std::uint64_t addr = i * 64;
        if (!base.access(addr))
            ++base_miss;
        const bool hit = with.access(addr);
        if (!hit)
            ++with_miss;
        pf.observe(addr, hit, with);
    }
    EXPECT_LT(with_miss, base_miss / 2);
}

TEST(PythiaLite, StaysQuietOnCacheFittingWorkload)
{
    Cache c(CacheParams{"c", 64 * 1024, 8, 64, 2});
    PythiaLitePrefetcher pf(3);
    Rng rng(2);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t addr = rng.below(512) * 64; // 32 KB WS
        const bool hit = c.access(addr);
        pf.observe(addr, hit, c);
    }
    // The RL agent should learn that prefetching rarely pays here:
    // issued prefetches stay a small fraction of accesses.
    EXPECT_LT(pf.issued(), 15000u);
}

TEST(IspyLite, LearnsRecurringMissSequences)
{
    Cache base(CacheParams{"c", 4096, 4, 64, 2});
    Cache with(CacheParams{"c", 4096, 4, 64, 2});
    IspyLitePrefetcher pf(3, 4);
    // A recurring walk over 4x the cache size.
    std::uint64_t base_miss = 0;
    std::uint64_t with_miss = 0;
    for (int rep = 0; rep < 50; ++rep) {
        for (std::uint64_t l = 0; l < 256; ++l) {
            const std::uint64_t addr = l * 64;
            if (!base.access(addr))
                ++base_miss;
            const bool hit = with.access(addr);
            if (!hit)
                ++with_miss;
            pf.observe(addr, hit, with);
        }
    }
    EXPECT_LT(with_miss, base_miss);
    EXPECT_GT(pf.accuracy(), 0.5);
    EXPECT_GT(pf.contexts(), 0u);
}

TEST(TraceGen, MonolithicIsBiggerThanMicro)
{
    const UarchTrace mono = TraceGen::monolithic(1, 100000);
    const UarchTrace micro = TraceGen::microservice(1, 100000);
    auto unique_lines = [](const std::vector<std::uint64_t> &v) {
        std::vector<std::uint64_t> lines;
        for (const std::uint64_t a : v)
            lines.push_back(a / 64);
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()),
                    lines.end());
        return lines.size();
    };
    EXPECT_GT(unique_lines(mono.dataAddrs),
              2 * unique_lines(micro.dataAddrs));
    EXPECT_GT(unique_lines(mono.instrAddrs),
              2 * unique_lines(micro.instrAddrs));
}

TEST(TraceGen, RequestedLengthHonored)
{
    const UarchTrace t = TraceGen::microservice(9, 12345);
    EXPECT_EQ(t.dataAddrs.size(), 12345u);
    EXPECT_EQ(t.instrAddrs.size(), 12345u);
    EXPECT_EQ(t.branches.size(), 12345u);
}

TEST(TraceGen, HotLinesAreSubset)
{
    const UarchTrace t = TraceGen::monolithic(2, 50000);
    const auto hot = TraceGen::hotInstrLines(t, 0.2, 64);
    std::unordered_set<std::uint64_t> lines;
    for (const std::uint64_t a : t.instrAddrs)
        lines.insert(a / 64);
    EXPECT_LT(hot.size(), lines.size());
    for (const std::uint64_t h : hot)
        EXPECT_TRUE(lines.count(h));
}

TEST(PipelineModel, CpiMonotoneInMissRates)
{
    PipelineModel pipe{PipelineParams{}};
    CpiInputs a;
    const double base = pipe.cpi(a);
    CpiInputs b = a;
    b.dataL1MissRate = 0.1;
    EXPECT_GT(pipe.cpi(b), base);
    CpiInputs c = b;
    c.dataL2MissRate = 0.5;
    EXPECT_GT(pipe.cpi(c), pipe.cpi(b));
    CpiInputs d = a;
    d.mispredictRate = 0.1;
    EXPECT_GT(pipe.cpi(d), base);
    CpiInputs e = a;
    e.instrL1MissRate = 0.1;
    EXPECT_GT(pipe.cpi(e), base);
}

TEST(PipelineModel, SpeedupDefinition)
{
    EXPECT_DOUBLE_EQ(PipelineModel::speedup(2.0, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(PipelineModel::speedup(1.0, 1.0), 1.0);
}

} // namespace
} // namespace umany
