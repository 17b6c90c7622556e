/**
 * @file
 * Sec 4.1/4.2 microbenchmark numbers:
 *
 *   paper: SHRIMP deliberate-update latency        ~6 us
 *          SHRIMP automatic-update 1-word latency   3.71 us
 *          UDMA send overhead                       < 2 us
 *          Myrinet-VMMC latency (faster PCI nodes)  slightly < 10 us
 *
 * Measures one-way user-to-user latency with a polling receiver, for
 * the SHRIMP NIC (DU and AU) and the Myrinet-style baseline adapter.
 */

#include <cstdio>
#include <cstring>

#include "bench/bench_common.hh"
#include "core/vmmc.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

/** Latency distribution of one measured setup. */
struct LatencyResult
{
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
};

/** One-way latency for a small message under a given setup. */
LatencyResult
measureOneWay(NicKind kind, bool use_au, const char *name)
{
    ClusterConfig cfg = bench::benchCluster();
    cfg.nicKind = kind;
    Cluster c(cfg);

    // Per-rep latencies land in a fixed-bucket histogram (0-20 us in
    // half-microsecond buckets) so the distribution is visible, not
    // just the mean.
    Histogram &lat =
        c.sim().stats().histogram("bench.latency_us", 0.0, 20.0, 40);

    ExportId exp = kInvalidExport;
    char *rbuf = nullptr;
    char *lbuf = nullptr;
    Tick sent = 0, seen = 0;
    const int kReps = 32;

    c.spawnOn(1, "recv", [&] {
        auto &ep = c.vmmc(1);
        rbuf = static_cast<char *>(
            c.node(1).mem().alloc(node::kPageBytes, true));
        std::memset(rbuf, 0, node::kPageBytes);
        exp = ep.exportBuffer(rbuf, node::kPageBytes);
        for (int i = 1; i <= kReps; ++i) {
            ep.waitUntil([&, i] { return rbuf[0] == char(i); });
            seen = c.sim().now();
            rbuf[node::kPageBytes - 1] = char(i); // handshake note
        }
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        if (use_au) {
            lbuf = static_cast<char *>(
                c.node(0).mem().alloc(node::kPageBytes, true));
            ep.bindAu(lbuf, p, 0, node::kPageBytes);
        }
        for (int i = 1; i <= kReps; ++i) {
            c.sim().delay(microseconds(100)); // receiver settles
            sent = c.sim().now();
            if (use_au) {
                ep.auWrite<char>(&lbuf[0], char(i));
                ep.auFlush();
            } else {
                char v = char(i);
                ep.send(p, &v, 1, 0);
            }
            // Wait for the receiver to observe it.
            while (seen < sent)
                c.sim().delay(microseconds(5));
            lat.sample(toMicroseconds(seen - sent));
        }
    });
    c.run();

    // Feed the report/metrics sinks (SHRIMP_REPORT_JSONL,
    // SHRIMP_METRICS) so shrimp_analyze can attribute the latency it
    // reports above to pipeline stages.
    apps::AppResult r;
    r.name = name;
    r.nprocs = 2;
    r.elapsed = c.sim().now();
    r.messages = c.sumNodeCounter("vmmc.messages");
    r.checksum = std::uint64_t(kReps);
    r.param("nic", kind == NicKind::Shrimp ? "shrimp" : "baseline");
    r.param("au", use_au ? 1 : 0);
    r.param("reps", kReps);
    apps::captureStats(r, c);
    bench::maybeEmitReport(r);

    return {lat.mean(), lat.percentile(50), lat.percentile(95)};
}

/** CPU time consumed by initiating one deliberate-update send. */
double
measureSendOverhead(NicKind kind)
{
    ClusterConfig cfg = bench::benchCluster();
    cfg.nicKind = kind;
    Cluster c(cfg);

    ExportId exp = kInvalidExport;
    double overhead_us = 0;

    c.spawnOn(1, "recv", [&] {
        auto &ep = c.vmmc(1);
        char *rbuf = static_cast<char *>(
            c.node(1).mem().alloc(node::kPageBytes, true));
        exp = ep.exportBuffer(rbuf, node::kPageBytes);
    });
    c.spawnOn(0, "send", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        const int kReps = 64;
        char v = 1;
        Tick t0 = c.sim().now();
        for (int i = 0; i < kReps; ++i) {
            ep.send(p, &v, 1, 0);
            ep.drainSends(); // so queue-full waits don't pollute
        }
        // Send overhead is the CPU-side initiation cost; subtract
        // the drain time by measuring initiation-only below.
        Tick with_drain = c.sim().now() - t0;
        (void)with_drain;
        // Initiation-only: time from call to return (engine accepts
        // asynchronously when idle).
        double total = 0;
        for (int i = 0; i < kReps; ++i) {
            ep.drainSends();
            Tick a = c.sim().now();
            ep.send(p, &v, 1, 0);
            total += toMicroseconds(c.sim().now() - a);
        }
        overhead_us = total / kReps;
    });
    c.run();
    return overhead_us;
}

} // anonymous namespace

int
main()
{
    shrimp::bench::banner(
        "latency microbenchmarks",
        "Sec 4.1/4.2 (6 us DU, 3.71 us AU, <2 us overhead, ~10 us "
        "Myrinet)");

    LatencyResult shrimp_du =
        measureOneWay(NicKind::Shrimp, false, "latency-du");
    LatencyResult shrimp_au =
        measureOneWay(NicKind::Shrimp, true, "latency-au");
    LatencyResult myrinet =
        measureOneWay(NicKind::Baseline, false, "latency-myrinet");
    double overhead = measureSendOverhead(NicKind::Shrimp);

    std::printf("%-38s %10s %10s %8s %8s\n", "metric", "paper",
                "measured", "p50", "p95");
    std::printf("%-38s %9.2fus %9.2fus %7.2fus %7.2fus\n",
                "SHRIMP deliberate update latency", 6.0,
                shrimp_du.mean, shrimp_du.p50, shrimp_du.p95);
    std::printf("%-38s %9.2fus %9.2fus %7.2fus %7.2fus\n",
                "SHRIMP automatic update latency", 3.71,
                shrimp_au.mean, shrimp_au.p50, shrimp_au.p95);
    std::printf("%-38s %9.2fus %9.2fus\n",
                "SHRIMP UDMA send overhead", 2.0, overhead);
    std::printf("%-38s %9.2fus %9.2fus %7.2fus %7.2fus\n",
                "Myrinet-VMMC baseline latency", 10.0, myrinet.mean,
                myrinet.p50, myrinet.p95);

    bool shape_holds = shrimp_au.mean < shrimp_du.mean &&
                       shrimp_du.mean < myrinet.mean && overhead < 2.0;
    std::printf("\nshape (AU < DU < Myrinet, overhead < 2us): %s\n",
                shape_holds ? "HOLDS" : "VIOLATED");
    return shape_holds ? 0 : 1;
}
