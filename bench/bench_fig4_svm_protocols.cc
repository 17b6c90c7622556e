/**
 * @file
 * Figure 4 (left): HLRC vs HLRC-AU vs AURC on 16 nodes for
 * Barnes-SVM, Ocean-SVM and Radix-SVM, as normalized execution time
 * with the computation / communication / lock / barrier / overhead
 * breakdown.
 *
 * Paper shape: AURC clearly beats HLRC (9.1% / 30.2% / 79.3% better
 * for the three apps), mostly by eliminating diff overhead and
 * shrinking synchronization waits; HLRC-AU is at best marginally
 * better than HLRC and can be slightly worse.
 */

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_common.hh"

using namespace shrimp;
using namespace shrimp::bench;
using namespace shrimp::apps;
using shrimp::svm::Protocol;

namespace
{

AppResult
runApp(const std::string &app, Protocol proto, int nprocs)
{
    core::ClusterConfig cc = benchCluster();
    if (app == "Barnes-SVM")
        return runBarnesSvm(cc, proto, nprocs, barnesSvmConfig());
    if (app == "Ocean-SVM")
        return runOceanSvm(cc, proto, nprocs, oceanConfig());
    return runRadixSvm(cc, proto, nprocs, radixConfig());
}

} // anonymous namespace

int
main()
{
    banner("SVM protocol comparison", "Figure 4 (left)");

    const char *apps_[] = {"Barnes-SVM", "Ocean-SVM", "Radix-SVM"};
    const Protocol protos[] = {Protocol::HLRC, Protocol::HLRC_AU,
                               Protocol::AURC};
    const int kProcs = 16;

    bool ok = true;
    for (const char *app : apps_) {
        std::printf("%s (16 nodes, normalized to HLRC):\n", app);
        std::printf("  %-8s %10s %8s %8s %6s %8s %9s\n", "proto",
                    "norm time", "comp%", "comm%", "lock%", "barr%",
                    "ovhd%");
        std::map<Protocol, Tick> elapsed;
        Tick hlrc_time = 0;
        for (Protocol p : protos) {
            auto r = runApp(app, p, kProcs);
            elapsed[p] = r.elapsed;
            if (p == Protocol::HLRC)
                hlrc_time = r.elapsed;
            double total = double(r.combined.grandTotal());
            auto pct = [&](TimeCategory c) {
                return total ? 100.0 * double(r.combined.total(c)) /
                                   total
                             : 0.0;
            };
            std::printf("  %-8s %10.3f %8.1f %8.1f %6.1f %8.1f %9.1f\n",
                        svm::protocolName(p),
                        double(r.elapsed) / double(hlrc_time),
                        pct(TimeCategory::Compute),
                        pct(TimeCategory::Communication),
                        pct(TimeCategory::Lock),
                        pct(TimeCategory::Barrier),
                        pct(TimeCategory::Overhead));
            std::fflush(stdout);
        }
        double aurc_gain =
            100.0 * (1.0 - double(elapsed[Protocol::AURC]) /
                               double(elapsed[Protocol::HLRC]));
        double hlrcau_gain =
            100.0 * (1.0 - double(elapsed[Protocol::HLRC_AU]) /
                               double(elapsed[Protocol::HLRC]));
        std::printf("  AURC improvement over HLRC: %.1f%%  "
                    "(paper: 9.1-79.3%%)\n",
                    aurc_gain);
        std::printf("  HLRC-AU improvement over HLRC: %.1f%%  "
                    "(paper: ~0, sometimes negative)\n\n",
                    hlrcau_gain);

        // Shape: AURC wins; HLRC-AU is close to HLRC.
        ok = ok && elapsed[Protocol::AURC] < elapsed[Protocol::HLRC];
        ok = ok && std::abs(hlrcau_gain) < std::abs(aurc_gain) + 10.0;
    }

    std::printf("shape (AURC < HLRC, HLRC-AU ~ HLRC): %s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}
