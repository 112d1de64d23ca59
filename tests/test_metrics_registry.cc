/**
 * @file
 * Tests for the OpenMetrics exporter: metric-name sanitization,
 * label escaping, non-finite value spellings, deterministic output
 * ordering, and a structural round-trip parse of the exposition
 * format (every sample line must tokenize back into name, labels,
 * and a numeric value, with metadata lines in the right places).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "stats/histogram.hh"
#include "stats/metrics_registry.hh"

namespace umany
{
namespace
{

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

TEST(MetricsRegistry, SanitizesStatNames)
{
    EXPECT_EQ(MetricsRegistry::sanitizeName("net.messages"),
              "umany_net_messages");
    EXPECT_EQ(MetricsRegistry::sanitizeName("umany_x"), "umany_x");
    EXPECT_EQ(MetricsRegistry::sanitizeName("server0.cores.util"),
              "umany_server0_cores_util");
    // A leading digit is illegal in Prometheus names.
    const std::string led = MetricsRegistry::sanitizeName("0bad");
    EXPECT_FALSE(led[0] >= '0' && led[0] <= '9');
}

TEST(MetricsRegistry, EscapesLabelValues)
{
    MetricsRegistry reg;
    reg.gauge("x", "h", 1.0,
              {{"path", "a\\b"}, {"quote", "say \"hi\""},
               {"nl", "line1\nline2"}});
    const std::string text = reg.openMetricsText();
    EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("quote=\"say \\\"hi\\\"\""),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("nl=\"line1\\nline2\""), std::string::npos)
        << text;
    // The raw newline must never reach the output mid-line.
    for (const std::string &l : lines(text))
        EXPECT_EQ(l.find("line1\nline2"), std::string::npos);
}

TEST(MetricsRegistry, NonFiniteValuesUseCanonicalSpellings)
{
    MetricsRegistry reg;
    reg.gauge("nanval", "h", std::nan(""));
    reg.gauge("posinf", "h",
              std::numeric_limits<double>::infinity());
    reg.gauge("neginf", "h",
              -std::numeric_limits<double>::infinity());
    const std::string text = reg.openMetricsText();
    EXPECT_NE(text.find("umany_nanval NaN\n"), std::string::npos)
        << text;
    EXPECT_NE(text.find("umany_posinf +Inf\n"), std::string::npos)
        << text;
    EXPECT_NE(text.find("umany_neginf -Inf\n"), std::string::npos)
        << text;
    // The platform printf spellings must not leak through.
    EXPECT_EQ(text.find("nan\n"), std::string::npos);
    EXPECT_EQ(text.find("inf\n"), std::string::npos);
}

TEST(MetricsRegistry, OutputOrderIsDeterministic)
{
    const auto build = []() {
        MetricsRegistry reg;
        reg.gauge("b_metric", "second family", 2.0);
        reg.gauge("a_metric", "first family", 1.0);
        reg.counter("events", "count", 7.0);
        Histogram h;
        for (std::uint64_t v = 1; v <= 100; ++v)
            h.add(v);
        reg.summary("lat", "latency", h, 2.0, {{"ep", "x"}});
        return reg.openMetricsText();
    };
    const std::string a = build();
    EXPECT_EQ(a, build());
    // Families appear in insertion order, not sorted: callers build
    // the registry deterministically and the export must not reorder
    // (unordered_map iteration order must never reach the output).
    EXPECT_LT(a.find("umany_b_metric"), a.find("umany_a_metric"));
}

TEST(MetricsRegistry, CounterAndSummaryShapes)
{
    MetricsRegistry reg;
    reg.counter("roots", "completed roots", 42.0);
    Histogram h;
    h.add(10);
    h.add(20);
    reg.summary("lat_us", "latency", h, 1.0);
    const std::string text = reg.openMetricsText();
    EXPECT_NE(text.find("# TYPE umany_roots counter"),
              std::string::npos);
    EXPECT_NE(text.find("umany_roots_total 42\n"),
              std::string::npos);
    EXPECT_NE(text.find("umany_lat_us{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("umany_lat_us_count 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("umany_lat_us_sum 30\n"),
              std::string::npos);
}

TEST(MetricsRegistry, ExpositionRoundTripsStructurally)
{
    MetricsRegistry reg;
    reg.gauge("g", "a gauge", 0.5, {{"k", "v"}});
    reg.gauge("g", "a gauge", 42.0, {{"k", "w"}});
    reg.counter("c", "a counter", 3.0);
    Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.add(v);
    reg.summary("s", "a summary", h);
    const std::string text = reg.openMetricsText();

    const std::vector<std::string> ls = lines(text);
    ASSERT_FALSE(ls.empty());
    EXPECT_EQ(ls.back(), "# EOF");

    std::size_t types = 0;
    std::size_t samples = 0;
    for (std::size_t i = 0; i + 1 < ls.size(); ++i) {
        const std::string &l = ls[i];
        if (l.rfind("# TYPE ", 0) == 0) {
            ++types;
            continue;
        }
        if (l.rfind("# HELP ", 0) == 0)
            continue;
        // A sample line: "<name>[{labels}] <value>". The value
        // after the final space must parse as a double, and any
        // label block must be balanced.
        const std::size_t sp = l.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << l;
        const std::string val = l.substr(sp + 1);
        char *end = nullptr;
        std::strtod(val.c_str(), &end);
        EXPECT_EQ(*end, '\0') << l;
        const std::string name = l.substr(0, sp);
        const std::size_t open = name.find('{');
        if (open != std::string::npos) {
            EXPECT_EQ(name.back(), '}') << l;
        }
        EXPECT_EQ(name.rfind("umany_", 0), 0u) << l;
        ++samples;
    }
    EXPECT_EQ(types, reg.families());
    // 2 gauge samples + 1 counter + 4 quantiles + _sum + _count.
    EXPECT_EQ(samples, 9u);

    // Value fidelity for exactly representable numbers.
    EXPECT_NE(text.find("umany_g{k=\"v\"} 0.5\n"),
              std::string::npos);
    EXPECT_NE(text.find("umany_g{k=\"w\"} 42\n"),
              std::string::npos);
}

} // namespace
} // namespace umany
