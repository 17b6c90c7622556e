/**
 * @file
 * The flight recorder: log-scale histograms, the metrics sampler, the
 * packet-lifecycle latency attribution, and the golden invariant that
 * turning observability on changes nothing about the simulated run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "bench/sweep.hh"
#include "sim/lifecycle.hh"
#include "sim/metrics.hh"
#include "sim/report_schema.hh"
#include "sim/stats.hh"

using namespace shrimp;

namespace
{

/** A small, fast Radix-VMMC run under the given cluster config. */
apps::AppResult
smallRadix(core::ClusterConfig cc, int procs = 4, int keys = 4 * 1024)
{
    apps::RadixConfig cfg;
    cfg.keys = std::size_t(keys);
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

void
clearRecorderEnv()
{
    ::unsetenv("SHRIMP_METRICS");
    ::unsetenv("SHRIMP_METRICS_INTERVAL_US");
    ::unsetenv("SHRIMP_LIFECYCLE");
}

} // anonymous namespace

// ----------------------------------------------------------------------
// Log-scale histograms
// ----------------------------------------------------------------------

TEST(LogHistogram, BucketsCoverDecadesAndPercentilesInterpolate)
{
    StatsRegistry stats;
    // 64 buckets/decade over [0.01, 1e4]: bucket ratio ~1.037, so any
    // percentile lands within ~2% of the sampled value.
    Histogram &h = stats.logHistogram("h", 0.01, 1e4, 384);
    EXPECT_TRUE(h.logScale());

    for (double v : {0.02, 0.5, 3.0, 42.0, 900.0, 5000.0})
        h.sample(v);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);

    // Same sample repeated: every percentile reconstructs it closely.
    Histogram &one = stats.logHistogram("one", 0.01, 1e4, 384);
    for (int i = 0; i < 100; ++i)
        one.sample(7.5);
    for (double p : {10.0, 50.0, 95.0, 99.0})
        EXPECT_NEAR(one.percentile(p), 7.5, 7.5 * 0.04) << p;

    // Out-of-range samples land in the under/overflow tallies.
    Histogram &edge = stats.logHistogram("edge", 1.0, 100.0, 16);
    edge.sample(0.5);
    edge.sample(200.0);
    EXPECT_EQ(edge.underflow(), 1u);
    EXPECT_EQ(edge.overflow(), 1u);
}

TEST(LogHistogram, LowEdgesAreMonotoneGeometric)
{
    StatsRegistry stats;
    Histogram &h = stats.logHistogram("h", 0.1, 1000.0, 40);
    double prev = 0;
    for (std::size_t i = 0; i < h.bucketCount(); ++i) {
        double lo = h.bucketLowEdge(i);
        EXPECT_GT(lo, prev);
        prev = lo;
    }
    EXPECT_NEAR(h.bucketLowEdge(0), 0.1, 1e-12);
    // The edge one past the last bucket is the histogram's hi bound.
    EXPECT_NEAR(h.bucketLowEdge(h.bucketCount()), 1000.0, 1e-9);
}

TEST(Scalars, SetAndSnapshot)
{
    StatsRegistry stats;
    stats.scalar("x").set(2.5);
    stats.scalar("x").set(7.0); // last write wins
    EXPECT_EQ(stats.scalarValue("x"), 7.0);
    EXPECT_EQ(stats.scalarValue("absent"), 0.0);
}

// ----------------------------------------------------------------------
// The sampler
// ----------------------------------------------------------------------

TEST(MetricsSampler, SamplesOnCadenceAndStopsWithTheRun)
{
    Simulation sim;
    int ticks = 0;
    // A busy-work chain that keeps the queue alive for exactly 100 us.
    std::function<void()> chain = [&] {
        if (++ticks < 100)
            sim.schedule(microseconds(1), chain);
    };
    sim.schedule(microseconds(1), chain);

    MetricsSampler sampler;
    sampler.addGauge("ticks", [&] { return double(ticks); });
    sampler.start(sim, microseconds(10));
    sim.run(); // must terminate: the sampler never self-perpetuates

    const MetricsSeries &s = sampler.series();
    ASSERT_EQ(s.names.size(), 1u);
    EXPECT_EQ(s.names[0], "ticks");
    ASSERT_GE(s.sampleCount(), 9u);
    ASSERT_LE(s.sampleCount(), 11u);
    for (std::size_t i = 0; i < s.times.size(); ++i) {
        EXPECT_EQ(s.times[i], Tick(i + 1) * microseconds(10));
        // The chain stops after 100 ticks, so the gauge saturates there
        // even if one final sample lands past the chain's end.
        double expect = std::min(
            double(s.times[i]) / double(microseconds(1)), 100.0);
        EXPECT_NEAR(s.columns[0][i], expect, 1.5);
    }
}

TEST(MetricsSampler, ClusterRunCapturesSeriesIntoResult)
{
    clearRecorderEnv();
    core::ClusterConfig cc;
    cc.metricsInterval = microseconds(20);
    auto r = smallRadix(cc);

    EXPECT_FALSE(r.metrics.empty());
    EXPECT_EQ(r.metricsInterval, microseconds(20));
    bool has_queue = false, has_mesh = false;
    for (const auto &n : r.metrics.names) {
        has_queue |= n == "sim.event_queue";
        has_mesh |= n == "mesh.links_busy";
    }
    EXPECT_TRUE(has_queue);
    EXPECT_TRUE(has_mesh);

    // JSONL serialization round-trips through the schema validator.
    std::ostringstream ss;
    r.metrics.writeJsonl(ss, r.name, r.metricsInterval);
    std::istringstream in(ss.str());
    std::string err;
    EXPECT_TRUE(validateMetricsJsonl(in, &err)) << err;
}

// ----------------------------------------------------------------------
// Golden invariant: observability changes nothing simulated
// ----------------------------------------------------------------------

TEST(FlightRecorder, SamplingAndLifecycleLeaveTheRunBitIdentical)
{
    clearRecorderEnv();
    core::ClusterConfig off;
    auto a = smallRadix(off);

    core::ClusterConfig on;
    on.metricsInterval = microseconds(5);
    on.lifecycleTracing = true;
    auto b = smallRadix(on);

    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.messages, b.messages);

    // Every counter the plain run had must be unchanged — the traced
    // run may only *add* entries (and in fact adds none).
    const auto &ca = a.stats.allCounters();
    const auto &cb = b.stats.allCounters();
    for (const auto &kv : ca) {
        auto it = cb.find(kv.first);
        ASSERT_NE(it, cb.end()) << kv.first;
        EXPECT_EQ(kv.second.value(), it->second.value()) << kv.first;
    }
}

TEST(FlightRecorder, LifecycleFillsLatencyBreakdown)
{
    clearRecorderEnv();
    core::ClusterConfig cc;
    cc.lifecycleTracing = true;
    auto r = smallRadix(cc);

    RunReport rep = apps::makeReport(r);
    ASSERT_TRUE(rep.latency.enabled);
    ASSERT_EQ(rep.latency.stages.size(),
              std::size_t(LifeStage::kCount));
    const auto &total = rep.latency.stages.back();
    EXPECT_EQ(total.stage, "total");
    EXPECT_GT(total.count, 0u);
    EXPECT_GT(total.p50Us, 0.0);
    EXPECT_GE(total.p99Us, total.p50Us);

    // The per-stage means must add up to the end-to-end mean: the
    // stages partition [born, rx_done] exactly.
    double sum = 0;
    for (const auto &s : rep.latency.stages)
        if (s.stage != "total")
            sum += s.meanUs;
    EXPECT_NEAR(sum, total.meanUs, 0.05 * total.meanUs);

    EXPECT_NE(rep.toJson(false).find("\"latency_breakdown\""),
              std::string::npos);
}

// ----------------------------------------------------------------------
// The SHRIMP_METRICS sink under parallel sweeps
// ----------------------------------------------------------------------

TEST(FlightRecorder, MetricsSinkIsByteIdenticalSerialVsParallel)
{
    auto sweep_into = [](const std::string &metrics,
                         const char *jobs) {
        std::remove(metrics.c_str());
        ::setenv("SHRIMP_METRICS", metrics.c_str(), 1);
        ::setenv("SHRIMP_METRICS_INTERVAL_US", "20", 1);
        ::setenv("SHRIMP_JOBS", jobs, 1);
        std::vector<std::function<apps::AppResult()>> jobs_v;
        for (int p : {1, 2, 4}) {
            jobs_v.push_back([p] {
                auto r = smallRadix(bench::benchCluster(), p);
                bench::maybeEmitReport(r);
                return r;
            });
        }
        auto results = bench::runSweep(std::move(jobs_v));
        clearRecorderEnv();
        ::unsetenv("SHRIMP_JOBS");
        return results;
    };

    std::string serial_path = "metrics_serial.jsonl";
    std::string parallel_path = "metrics_parallel.jsonl";
    auto serial = sweep_into(serial_path, "1");
    auto parallel = sweep_into(parallel_path, "4");

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i].checksum, parallel[i].checksum) << i;

    std::string a = slurp(serial_path);
    std::string b = slurp(parallel_path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);

    // The concatenated multi-series file passes schema validation.
    std::istringstream in(a);
    std::string err;
    EXPECT_TRUE(validateMetricsJsonl(in, &err)) << err;

    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
}

// ----------------------------------------------------------------------
// Reliability observability satellites
// ----------------------------------------------------------------------

TEST(FlightRecorder, AckRttSamplesAppearUnderFaultMode)
{
    clearRecorderEnv();
    core::ClusterConfig cc;
    cc.network.fault.forceReliability = true;
    auto r = smallRadix(cc, 2);

    // The sender node recorded round-trip samples...
    const Histogram *rtt =
        r.stats.findHistogram("node0.rel.ack_rtt_us");
    ASSERT_NE(rtt, nullptr);
    EXPECT_GT(rtt->count(), 0u);
    EXPECT_TRUE(rtt->logScale());
    EXPECT_GT(rtt->percentile(50), 0.0);

    // ...and the per-channel scalars exist with sane values.
    EXPECT_GT(r.stats.scalarValue("node0.rel.dst1.srtt_us"), 0.0);
    EXPECT_EQ(r.stats.scalarValue("node0.rel.dst1.gave_up"), 0.0);
    EXPECT_EQ(r.stats.scalarValue("node0.rel.dst1.outstanding"), 0.0);
}
