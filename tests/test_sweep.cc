/**
 * @file
 * The parallel sweep runner: submission-ordered results, serial vs
 * parallel determinism, and byte-identical RunReport JSONL, causal
 * log and Chrome trace output (the golden invariant every
 * design-conclusion sweep rests on).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "bench/sweep.hh"
#include "sim/causal_read.hh"
#include "sim/json_in.hh"

using namespace shrimp;
using namespace shrimp::bench;

namespace
{

/** A small, fast Radix-VMMC run; fully deterministic per (cfg, p). */
apps::AppResult
smallRadix(int procs, int keys)
{
    core::ClusterConfig cc;
    apps::RadixConfig cfg;
    cfg.keys = keys;
    cfg.iterations = 1;
    return apps::runRadixVmmc(cc, /*au=*/true, procs, cfg);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run the standard 4-job sweep, reporting into @p jsonl. */
std::vector<apps::AppResult>
sweepInto(const std::string &jsonl, const char *jobs_env)
{
    ::setenv("SHRIMP_REPORT_JSONL", jsonl.c_str(), 1);
    ::setenv("SHRIMP_JOBS", jobs_env, 1);
    std::vector<std::function<apps::AppResult()>> jobs;
    for (int p : {1, 2, 4, 8}) {
        jobs.push_back([p] {
            auto r = smallRadix(p, 8 * 1024);
            maybeEmitReport(r);
            return r;
        });
    }
    auto results = runSweep(std::move(jobs));
    ::unsetenv("SHRIMP_REPORT_JSONL");
    ::unsetenv("SHRIMP_JOBS");
    return results;
}

/**
 * Run a 4-job radix sweep in a child process with the recorder
 * named by @p env writing to @p path — one sweep per process, as in
 * a bench binary. The child's exit closes the recorder (the env
 * opener registers that), and the Chrome trace's process-global
 * track registry starts out the same in every child.
 */
void
recordedSweep(const char *env, const std::string &path,
              const char *jobs_env)
{
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            ::setenv(env, path.c_str(), 1);
            ::setenv("SHRIMP_JOBS", jobs_env, 1);
            std::vector<std::function<int()>> jobs;
            // Equal-length jobs on overlapping nodes, so four
            // workers would run them side by side.
            for (int p : {8, 8, 16, 16})
                jobs.push_back(
                    [p] { return int(smallRadix(p, 32 * 1024).nprocs); });
            runSweep(std::move(jobs));
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");
}

} // anonymous namespace

TEST(Sweep, JobsEnvControlsWorkerCount)
{
    ::unsetenv("SHRIMP_JOBS");
    EXPECT_EQ(sweepJobs(), 1);
    ::setenv("SHRIMP_JOBS", "4", 1);
    EXPECT_EQ(sweepJobs(), 4);
    ::setenv("SHRIMP_JOBS", "0", 1);
    EXPECT_EQ(sweepJobs(), 1);
    ::setenv("SHRIMP_JOBS", "9999", 1);
    EXPECT_EQ(sweepJobs(), 64);
    ::unsetenv("SHRIMP_JOBS");
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    ::setenv("SHRIMP_JOBS", "4", 1);
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 32; ++i)
        jobs.push_back([i] { return i * i; });
    auto results = runSweep(std::move(jobs));
    ::unsetenv("SHRIMP_JOBS");
    ASSERT_EQ(results.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(Sweep, SerialAndParallelRunsAreByteIdentical)
{
    std::string serial_path = "sweep_serial.jsonl";
    std::string parallel_path = "sweep_parallel.jsonl";
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());

    auto serial = sweepInto(serial_path, "1");
    auto parallel = sweepInto(parallel_path, "4");

    // Simulated results agree exactly, run by run.
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].elapsed, parallel[i].elapsed) << i;
        EXPECT_EQ(serial[i].checksum, parallel[i].checksum) << i;
        EXPECT_EQ(serial[i].messages, parallel[i].messages) << i;
    }

    // Golden invariant: the JSONL report files are byte-identical.
    std::string a = slurp(serial_path);
    std::string b = slurp(parallel_path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);

    // One report line per job, each a JSON object.
    int lines = 0;
    for (char c : a)
        lines += c == '\n';
    EXPECT_EQ(lines, 4);
    EXPECT_EQ(a.front(), '{');

    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
}

/**
 * The causal log and the Chrome trace are process-global recorders
 * opened from the environment. A sweep with either one on must open
 * it before any job starts and run its jobs one at a time, so
 * SHRIMP_JOBS=4 writes the same valid file as SHRIMP_JOBS=1.
 */
TEST(Sweep, RecordersAreByteIdenticalAcrossJobCounts)
{
    std::string dir = testing::TempDir();
    std::string causal1 = dir + "sweep_causal_1.jsonl";
    std::string causal4 = dir + "sweep_causal_4.jsonl";
    recordedSweep("SHRIMP_CAUSAL", causal1, "1");
    recordedSweep("SHRIMP_CAUSAL", causal4, "4");
    std::string a = slurp(causal1);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(slurp(causal4), a);
    causal_read::Log log;
    std::string err;
    ASSERT_TRUE(causal_read::load(causal4, log, &err)) << err;
    EXPECT_TRUE(causal_read::validate(log, &err)) << err;
    EXPECT_FALSE(log.spans.empty());

    std::string trace1 = dir + "sweep_trace_1.json";
    std::string trace4 = dir + "sweep_trace_4.json";
    recordedSweep("SHRIMP_TRACE", trace1, "1");
    recordedSweep("SHRIMP_TRACE", trace4, "4");
    std::string t = slurp(trace1);
    ASSERT_FALSE(t.empty());
    EXPECT_EQ(slurp(trace4), t);
    JsonValue doc;
    EXPECT_TRUE(parseJson(slurp(trace4), doc, &err)) << err;

    for (const std::string &p : {causal1, causal4, trace1, trace4})
        std::remove(p.c_str());
}

TEST(Sweep, RepeatedRunsAreDeterministic)
{
    auto a = smallRadix(4, 4 * 1024);
    auto b = smallRadix(4, 4 * 1024);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(apps::makeReport(a).toJson(false),
              apps::makeReport(b).toJson(false));
}

/**
 * The sink's flush ordering assumes one writer per path: while a
 * sweep is in flight, only its worker threads (which carry per-job
 * buffers) may emit. A foreign thread appending directly would
 * interleave nondeterministically with the submission-ordered flush,
 * so it dies loudly instead.
 */
TEST(SweepSinkOwnership, ForeignThreadEmitDiesDuringSweep)
{
    EXPECT_DEATH(
        {
            std::string path =
                testing::TempDir() + "sink_ownership.jsonl";
            ::setenv("SHRIMP_REPORT_JSONL", path.c_str(), 1);
            ::setenv("SHRIMP_JOBS", "1", 1);
            std::vector<std::function<int()>> jobs;
            jobs.push_back([] {
                // A thread the sweep does not know about (no per-job
                // buffer) emitting mid-sweep.
                std::thread rogue([] {
                    RunReport rep;
                    emitReport(rep);
                });
                rogue.join();
                return 0;
            });
            runSweep(std::move(jobs));
        },
        "not a sweep worker");
}

