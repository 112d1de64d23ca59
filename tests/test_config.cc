/**
 * @file
 * Tests for Config, logging helpers, SimObject, and the runners'
 * rejection of configurations they cannot run.
 */

#include <gtest/gtest.h>

#include "driver/experiment.hh"
#include "rack/rack_experiment.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "workload/app_graph.hh"

namespace umany
{
namespace
{

TEST(Config, ParsesKeyValueArgs)
{
    Config c;
    const char *argv[] = {"prog", "rps=5000", "name=test",
                          "flag=true", "ratio=2.5"};
    c.parseArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(c.getInt("rps"), 5000);
    EXPECT_EQ(c.getString("name"), "test");
    EXPECT_TRUE(c.getBool("flag"));
    EXPECT_DOUBLE_EQ(c.getDouble("ratio"), 2.5);
}

TEST(Config, BareDashedFlagIsBooleanSugar)
{
    Config c;
    const char *argv[] = {"prog", "--run-summary", "--progress=2.5"};
    c.parseArgs(3, const_cast<char **>(argv));
    EXPECT_TRUE(c.getBool("run_summary"));
    EXPECT_DOUBLE_EQ(c.getDouble("progress"), 2.5);
}

TEST(Config, DefaultsForMissingKeys)
{
    Config c;
    EXPECT_EQ(c.getInt("absent", 7), 7);
    EXPECT_EQ(c.getString("absent", "d"), "d");
    EXPECT_FALSE(c.getBool("absent", false));
    EXPECT_DOUBLE_EQ(c.getDouble("absent", 1.5), 1.5);
    EXPECT_FALSE(c.has("absent"));
}

TEST(Config, SetOverwrites)
{
    Config c;
    c.set("k", "1");
    c.set("k", "2");
    EXPECT_EQ(c.getInt("k"), 2);
}

TEST(Config, BooleanSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on"}) {
        c.set("b", t);
        EXPECT_TRUE(c.getBool("b")) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        c.set("b", f);
        EXPECT_FALSE(c.getBool("b")) << f;
    }
}

TEST(ConfigDeathTest, MissingRequiredKeyIsFatal)
{
    Config c;
    EXPECT_DEATH(c.getInt("nope"), "missing required");
}

TEST(ConfigDeathTest, MalformedNumberIsFatal)
{
    Config c;
    c.set("n", "12abc");
    EXPECT_DEATH(c.getInt("n"), "not an integer");
}

TEST(ConfigDeathTest, BadArgFormatIsFatal)
{
    Config c;
    const char *argv[] = {"prog", "justvalue"};
    EXPECT_DEATH(c.parseArgs(2, const_cast<char **>(argv)),
                 "key=value");
}

// Only the serial kernel exists: any other kernel count fails before
// the run starts.
TEST(ConfigDeathTest, ExperimentShardsOtherThanOneIsFatal)
{
    const ServiceCatalog cat = buildSocialNetwork();
    ExperimentConfig cfg;
    cfg.shards = 2;
    EXPECT_DEATH(runExperiment(cat, cfg), "shards=2: only the serial");
}

TEST(ConfigDeathTest, RackExperimentShardsOtherThanOneIsFatal)
{
    const ServiceCatalog cat = buildSocialNetwork();
    RackExperimentConfig cfg;
    cfg.base.shards = 0;
    EXPECT_DEATH(runRackExperiment(cat, cfg),
                 "shards=0: only the serial");
}

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 7), "boom 7");
}

TEST(LoggingDeathTest, FatalExits)
{
    EXPECT_EXIT(fatal("bad config"),
                ::testing::ExitedWithCode(1), "bad config");
}

TEST(SimObject, NameAndTime)
{
    EventQueue eq;
    SimObject obj("a.b.c", eq);
    EXPECT_EQ(obj.name(), "a.b.c");
    EXPECT_EQ(obj.curTick(), 0u);
    eq.schedule(100, []() {});
    eq.run();
    EXPECT_EQ(obj.curTick(), 100u);
    EXPECT_EQ(&obj.eventq(), &eq);
}

} // namespace
} // namespace umany
