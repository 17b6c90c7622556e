/**
 * @file
 * Shared virtual memory on SHRIMP: the same grid relaxation run under
 * HLRC, HLRC-AU and AURC, printing the Fig.-4-style execution-time
 * breakdown (computation / communication / lock / barrier / overhead)
 * so the protocol differences are visible at a glance.
 *
 * Run: ./svm_matrix
 */

#include <cstdio>
#include <vector>

#include "core/run_config.hh"
#include "svm/svm.hh"

using namespace shrimp;
using namespace shrimp::svm;

namespace
{

struct Outcome
{
    Tick elapsed;
    TimeAccount combined;
    std::uint64_t checksum;
};

Outcome
runOnce(const core::ClusterConfig &cc, Protocol protocol)
{
    core::Cluster cluster(cc);
    const int kProcs = 8;
    const int kN = 128;
    const int kIters = 10;

    SvmConfig cfg;
    cfg.protocol = protocol;
    cfg.nprocs = kProcs;
    cfg.heapBytes = 4 * 1024 * 1024;
    SvmRuntime rt(cluster, cfg);

    // Pages stay on their default round-robin homes: most writes are
    // remote, which is exactly the workload that separates the three
    // protocols (diffs vs write-through).
    auto *a = rt.sharedAllocArray<double>(kN * kN);
    auto *b = rt.sharedAllocArray<double>(kN * kN);
    const int rows_per = kN / kProcs;

    Outcome out{};
    std::vector<Tick> ends(kProcs, 0);

    for (int q = 0; q < kProcs; ++q) {
        cluster.spawnOn(q, "relax", [&, q] {
            rt.init(q);
            SvmView v(rt, q);
            const int first = q * rows_per;
            const int last = first + rows_per;

            std::vector<double> row(kN);
            for (int r = first; r < last; ++r) {
                for (int c = 0; c < kN; ++c)
                    row[c] = double((r * kN + c) % 97);
                v.writeRange(&a[r * kN], row.data(), kN * 8);
            }
            v.barrier();

            double *from = a;
            double *to = b;
            for (int iter = 0; iter < kIters; ++iter) {
                for (int r = std::max(first, 1);
                     r < std::min(last, kN - 1); ++r) {
                    const auto *up = reinterpret_cast<const double *>(
                        v.readRange(&from[(r - 1) * kN], kN * 8));
                    const auto *mid = reinterpret_cast<const double *>(
                        v.readRange(&from[r * kN], kN * 8));
                    const auto *dn = reinterpret_cast<const double *>(
                        v.readRange(&from[(r + 1) * kN], kN * 8));
                    for (int c = 1; c < kN - 1; ++c)
                        row[c] = 0.25 * (up[c] + dn[c] + mid[c - 1] +
                                         mid[c + 1]);
                    row[0] = mid[0];
                    row[kN - 1] = mid[kN - 1];
                    cluster.node(q).cpu().compute(
                        Tick(kN) * microseconds(2));
                    v.writeRange(&to[r * kN], row.data(), kN * 8);
                }
                v.barrier();
                std::swap(from, to);
            }
            rt.account(q).stop();
            ends[q] = cluster.sim().now();

            if (q == 0) {
                const auto *g = reinterpret_cast<const double *>(
                    v.readRange(from, std::size_t(kN) * kN * 8));
                double s = 0;
                for (int i = 0; i < kN * kN; ++i)
                    s += g[i];
                out.checksum = std::uint64_t(s);
            }
        });
    }

    cluster.run();
    for (int q = 0; q < kProcs; ++q) {
        out.combined.merge(rt.account(q));
        out.elapsed = std::max(out.elapsed, ends[q]);
    }
    return out;
}

} // anonymous namespace

int
main()
{
    core::ClusterConfig cc = core::startFromEnv().cluster; // SHRIMP_* knobs
    std::printf("%-8s %10s  %8s %8s %6s %8s %9s   %s\n", "protocol",
                "time(ms)", "comp%", "comm%", "lock%", "barrier%",
                "overhead%", "checksum");

    for (Protocol p :
         {Protocol::HLRC, Protocol::HLRC_AU, Protocol::AURC}) {
        Outcome o = runOnce(cc, p);
        double total = double(o.combined.grandTotal());
        auto pct = [&](TimeCategory c) {
            return 100.0 * double(o.combined.total(c)) / total;
        };
        std::printf("%-8s %10.2f  %8.1f %8.1f %6.1f %8.1f %9.1f   %llu\n",
                    protocolName(p), toSeconds(o.elapsed) * 1e3,
                    pct(TimeCategory::Compute),
                    pct(TimeCategory::Communication),
                    pct(TimeCategory::Lock),
                    pct(TimeCategory::Barrier),
                    pct(TimeCategory::Overhead),
                    (unsigned long long)o.checksum);
    }
    return 0;
}
