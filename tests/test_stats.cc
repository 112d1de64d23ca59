/**
 * @file
 * Tests for Summary, Cdf, and Table.
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "stats/cdf.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

namespace umany
{
namespace
{

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
}

TEST(Summary, MergeMatchesCombined)
{
    Rng rng(3);
    Summary a, b, all;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(0.0, 10.0);
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Summary, MergeWithEmpty)
{
    Summary a, b;
    a.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.mean(), 5.0);
}

TEST(Cdf, QuantileAndAt)
{
    Cdf c;
    for (int i = 1; i <= 100; ++i)
        c.add(static_cast<double>(i));
    EXPECT_NEAR(c.quantile(0.5), 50.5, 1.0);
    EXPECT_NEAR(c.at(50.0), 0.5, 0.01);
    EXPECT_EQ(c.at(0.0), 0.0);
    EXPECT_EQ(c.at(1000.0), 1.0);
    EXPECT_EQ(c.min(), 1.0);
    EXPECT_EQ(c.max(), 100.0);
    EXPECT_NEAR(c.mean(), 50.5, 1e-9);
}

TEST(Cdf, CurveIsMonotone)
{
    Rng rng(9);
    Cdf c;
    for (int i = 0; i < 1000; ++i)
        c.add(100.0 + 20.0 * rng.gaussian());
    const auto curve = c.curve(20, 0.0, 200.0);
    ASSERT_EQ(curve.size(), 20u);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].second, curve[i - 1].second);
        EXPECT_GT(curve[i].first, curve[i - 1].first);
    }
}

TEST(Cdf, EmptyIsSafe)
{
    Cdf c;
    EXPECT_EQ(c.quantile(0.5), 0.0);
    EXPECT_EQ(c.at(1.0), 0.0);
    EXPECT_TRUE(c.curve(10, 0.0, 1.0).empty());
}

TEST(Table, FormatsAlignedColumns)
{
    Table t({"a", "bb"});
    t.addRow({"x", "1"});
    t.addRow({"yyyy", "22"});
    const std::string out = t.format();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("yyyy"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(TableDeathTest, RowArityMismatchIsFatal)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

} // namespace
} // namespace umany
