/**
 * @file
 * Ablation: how sensitive is SVM performance to the notification
 * (user-level upcall) cost?
 *
 * The paper's SVM implementations ride on notifications for every
 * protocol request (Table 3), so the signal-delivery path is a
 * first-order design parameter: this sweep shows how an OS with a
 * faster (or slower) upcall path would have shifted the SVM results —
 * one of the "lessons" conversations the retrospective invites.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace shrimp;
using namespace shrimp::bench;
using namespace shrimp::apps;
using shrimp::svm::Protocol;

int
main()
{
    banner("notification-cost ablation",
           "design-choice ablation (Sec 4.4, Table 3)");

    const double costs_us[] = {5, 18, 50, 100};

    std::printf("%-18s %16s %16s\n", "upcall cost", "Radix-SVM (ms)",
                "Barnes-SVM (ms)");

    // Each (cost, app) cell is one sweep job.
    std::vector<std::function<apps::AppResult()>> jobs;
    for (double us : costs_us) {
        jobs.push_back([us] {
            core::ClusterConfig cc = benchCluster();
            cc.machine.notificationCost = microseconds(us);
            return runRadixSvm(cc, Protocol::AURC, 16, radixConfig());
        });
        jobs.push_back([us] {
            core::ClusterConfig cc = benchCluster();
            cc.machine.notificationCost = microseconds(us);
            auto bcfg = barnesSvmConfig();
            bcfg.bodies = std::min(bcfg.bodies, 2048);
            return runBarnesSvm(cc, Protocol::AURC, 16, bcfg);
        });
    }
    auto results = runSweep(std::move(jobs));

    Tick radix_fast = 0, radix_slow = 0;
    for (std::size_t i = 0; i < std::size(costs_us); ++i) {
        double us = costs_us[i];
        const auto &radix = results[2 * i];
        const auto &barnes = results[2 * i + 1];
        std::printf("%15.0fus %16.2f %16.2f\n", us,
                    toSeconds(radix.elapsed) * 1e3,
                    toSeconds(barnes.elapsed) * 1e3);
        if (us == 5)
            radix_fast = radix.elapsed;
        if (us == 100)
            radix_slow = radix.elapsed;
    }

    bool ok = radix_slow > radix_fast;
    std::printf("\nshape (SVM slows as the upcall path slows): %s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}
