/**
 * @file
 * The knob table (core/run_config.hh): one precedence rule (flag >
 * environment > default), "set" meaning non-empty, env values parsed
 * as strictly as flags, and the table as the only environment reader
 * and the source of the documented knob list.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "core/run_config.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

/** Clears every SHRIMP_* knob variable, so each test starts clean. */
void
clearKnobEnv()
{
    for (const Knob &k : knobs())
        if (k.env)
            ::unsetenv(k.env);
}

/** applyFlags over a literal command line. */
bool
flags(RunConfig &rc, std::vector<std::string> args, std::string &err)
{
    args.insert(args.begin(), "shrimp_run");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    return applyFlags(rc, int(argv.size()), argv.data(), err);
}

/** The error applyEnv reports for @p var=@p value alone. */
std::string
envError(const char *var, const char *value)
{
    clearKnobEnv();
    ::setenv(var, value, 1);
    RunConfig rc;
    std::string err;
    bool ok = applyEnv(rc, err);
    ::unsetenv(var);
    return ok ? "" : err;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // anonymous namespace

TEST(Knobs, FlagBeatsEnvironmentBeatsDefault)
{
    clearKnobEnv();
    ::setenv("SHRIMP_FAULT_SEED", "5", 1);
    ::setenv("SHRIMP_FAULT_DROP_RATE", "0", 1);
    ::setenv("SHRIMP_MESH", "8x8", 1);
    ::setenv("SHRIMP_FAULT_LINK_DOWN", "1:5:10", 1);
    RunConfig rc;
    std::string err;
    ASSERT_TRUE(applyEnv(rc, err)) << err;
    clearKnobEnv();
    EXPECT_EQ(rc.cluster.network.fault.seed, 5u);
    EXPECT_EQ(rc.cluster.meshWidth, 8);
    ASSERT_EQ(rc.cluster.network.fault.outages.size(), 1u);
    // The default survives where neither sets a knob.
    EXPECT_EQ(rc.cluster.nicKind, NicKind::Shrimp);

    ASSERT_TRUE(flags(rc,
                      {"--fault-seed", "7", "--fault-drop-rate", "0.02",
                       "--fault-link-down", "2:0:1", "--fault-link-down",
                       "3:0:1"},
                      err))
        << err;
    EXPECT_EQ(rc.cluster.network.fault.seed, 7u);
    EXPECT_DOUBLE_EQ(rc.cluster.network.fault.dropRate, 0.02);
    // The command line's outage list replaces the environment's.
    ASSERT_EQ(rc.cluster.network.fault.outages.size(), 2u);
    EXPECT_EQ(rc.cluster.network.fault.outages[0].link, 2);
    EXPECT_EQ(rc.cluster.network.fault.outages[1].link, 3);
    // Untouched by the flags, the environment's mesh stays.
    EXPECT_EQ(rc.cluster.meshWidth, 8);
}

TEST(Knobs, SetMeansNonEmpty)
{
    clearKnobEnv();
    for (const Knob &k : knobs())
        if (k.env)
            ::setenv(k.env, "", 1);
    RunConfig rc;
    std::string err;
    ASSERT_TRUE(applyEnv(rc, err)) << err;
    clearKnobEnv();
    // An empty SHRIMP_METRICS names no sink, so it starts no sampler.
    EXPECT_TRUE(rc.metricsFile.empty());
    EXPECT_EQ(rc.cluster.metricsInterval, 0u);
    EXPECT_FALSE(rc.cluster.lifecycleTracing);
    EXPECT_EQ(rc.cluster.watchdogSecs, 0);
    EXPECT_EQ(rc.jobs, 1);

    // A named sink implies the default cadence; an interval wins.
    ::setenv("SHRIMP_METRICS", "m.jsonl", 1);
    EXPECT_EQ(envRunConfig().cluster.metricsInterval, microseconds(10));
    ::setenv("SHRIMP_METRICS_INTERVAL_US", "20", 1);
    EXPECT_EQ(envRunConfig().cluster.metricsInterval, microseconds(20));
    clearKnobEnv();
}

TEST(Knobs, EnvironmentParsesAsStrictlyAsFlags)
{
    for (const char *bad : {"abc", "-0.1", "1.5", "nan", "0.5x"})
        EXPECT_NE(envError("SHRIMP_FAULT_DROP_RATE", bad)
                      .find("SHRIMP_FAULT_DROP_RATE wants a number"),
                  std::string::npos)
            << bad;
    for (const char *bad : {"abc", "-5", "3s"})
        EXPECT_NE(envError("SHRIMP_WATCHDOG_SECS", bad)
                      .find("SHRIMP_WATCHDOG_SECS wants an integer"),
                  std::string::npos)
            << bad;
    for (const char *bad : {"abc", "-5", "1e300"})
        EXPECT_NE(envError("SHRIMP_METRICS_INTERVAL_US", bad)
                      .find("SHRIMP_METRICS_INTERVAL_US wants a number"),
                  std::string::npos)
            << bad;
    for (const char *bad : {"-1", "+5", "abc"})
        EXPECT_NE(envError("SHRIMP_FAULT_SEED", bad).find(
                      "SHRIMP_FAULT_SEED"),
                  std::string::npos)
            << bad;
    EXPECT_NE(envError("SHRIMP_NIC", "myrinet").find("SHRIMP_NIC"),
              std::string::npos);
    EXPECT_NE(envError("SHRIMP_MESH", "banana").find("not a valid"),
              std::string::npos);
    EXPECT_NE(envError("SHRIMP_FAULT_LINK_DOWN", "1:5:10,x").find(
                  "SHRIMP_FAULT_LINK_DOWN"),
              std::string::npos);
    EXPECT_NE(envError("SHRIMP_LIFECYCLE", "yes").find("wants 0 or 1"),
              std::string::npos);
    EXPECT_NE(envError("SHRIMP_LOG", "loud").find("SHRIMP_LOG"),
              std::string::npos);
    EXPECT_NE(envError("SHRIMP_SCALE", "huge").find("SHRIMP_SCALE"),
              std::string::npos);
    EXPECT_NE(envError("SHRIMP_JOBS", "abc").find("SHRIMP_JOBS"),
              std::string::npos);

    // SHRIMP_JOBS clamps into [1, 64] rather than failing.
    clearKnobEnv();
    ::setenv("SHRIMP_JOBS", "0", 1);
    EXPECT_EQ(envRunConfig().jobs, 1);
    ::setenv("SHRIMP_JOBS", "9999", 1);
    EXPECT_EQ(envRunConfig().jobs, 64);
    ::setenv("SHRIMP_LOG", "2", 1);
    EXPECT_EQ(envRunConfig().logLevel, LogLevel::Info);
    ::setenv("SHRIMP_LOG", "quiet", 1);
    EXPECT_EQ(envRunConfig().logLevel, LogLevel::Quiet);
    clearKnobEnv();
}

TEST(KnobsDeathTest, BadEnvironmentValueIsFatalInBenches)
{
    clearKnobEnv();
    ::setenv("SHRIMP_FAULT_DROP_RATE", "abc", 1);
    EXPECT_DEATH(envRunConfig(), "SHRIMP_FAULT_DROP_RATE");
    ::unsetenv("SHRIMP_FAULT_DROP_RATE");
}

TEST(Knobs, TableRowsAreWellFormed)
{
    std::vector<std::string> seen;
    for (const Knob &k : knobs()) {
        ASSERT_TRUE(k.flag || k.env);
        ASSERT_NE(k.set, nullptr);
        // A variable-only knob needs a value placeholder.
        if (!k.flag) {
            EXPECT_NE(k.arg, nullptr) << k.env;
        }
        if (k.env) {
            EXPECT_EQ(std::string(k.env).rfind("SHRIMP_", 0), 0u);
        }
        for (const char *name : {k.flag, k.env}) {
            if (!name)
                continue;
            for (const std::string &s : seen)
                EXPECT_NE(s, name) << "duplicate knob " << name;
            seen.push_back(name);
        }
    }
}

/**
 * The knob module is the only reader of the environment under src/:
 * library code takes its configuration as given.
 */
TEST(KnobLint, OnlyTheKnobModuleReadsTheEnvironment)
{
    namespace fs = std::filesystem;
    fs::path src = fs::path(SHRIMP_SOURCE_DIR) / "src";
    ASSERT_TRUE(fs::is_directory(src));
    int files = 0;
    for (const auto &e : fs::recursive_directory_iterator(src)) {
        if (!e.is_regular_file())
            continue;
        ++files;
        fs::path rel = fs::relative(e.path(), src);
        if (rel == fs::path("core/run_config.cc"))
            continue;
        EXPECT_EQ(slurp(e.path()).find("getenv"), std::string::npos)
            << rel << " reads the environment";
    }
    EXPECT_GT(files, 50);
}

/** Every knob appears in README's knob table and in --help. */
TEST(KnobLint, EveryKnobIsDocumented)
{
    std::string readme =
        slurp(std::filesystem::path(SHRIMP_SOURCE_DIR) / "README.md");
    std::size_t begin = readme.find("\n## Knobs");
    ASSERT_NE(begin, std::string::npos) << "README has no ## Knobs";
    std::size_t end = readme.find("\n## ", begin + 1);
    std::string table = readme.substr(begin, end - begin);

    std::string help;
    std::string cmd = std::string(SHRIMP_RUN_BIN) + " --help 2>/dev/null";
    std::FILE *p = ::popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        help.append(buf, n);
    int status = ::pclose(p);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "shrimp_run --help exited with status " << status;
    ASSERT_NE(help.find("usage:"), std::string::npos) << help;

    for (const Knob &k : knobs()) {
        for (const char *name : {k.flag, k.env}) {
            if (!name)
                continue;
            EXPECT_NE(table.find(strfmt("`%s`", name)),
                      std::string::npos)
                << name << " is missing from README's knob table";
        }
        // --help prints a flag at the start of its line, a variable
        // in parentheses under its flag or, alone, as NAME=VALUE.
        if (k.flag) {
            EXPECT_NE(help.find(strfmt("\n  %s ", k.flag)),
                      std::string::npos)
                << k.flag << " is missing from shrimp_run --help";
        }
        if (k.env) {
            std::string shown = k.flag ? strfmt("(%s)", k.env)
                                       : strfmt("\n  %s=", k.env);
            EXPECT_NE(help.find(shown), std::string::npos)
                << k.env << " is missing from shrimp_run --help";
        }
    }
}
