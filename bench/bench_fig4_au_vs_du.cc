/**
 * @file
 * Figure 4 (right): automatic update vs deliberate update for
 * Radix-VMMC, Ocean-NX and Barnes-NX on 16 nodes, as normalized
 * execution time (DU = 1.0).
 *
 * Paper shape: AU improves Radix-VMMC dramatically (speedup factor
 * ~3.4) because it eliminates the gather/scatter around the scattered
 * key permutation; for the message-passing apps (large contiguous
 * sends) AU is not a win — DU's DMA bandwidth dominates.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace shrimp;
using namespace shrimp::bench;
using namespace shrimp::apps;

int
main()
{
    banner("automatic vs deliberate update", "Figure 4 (right)");

    const int kProcs = 16;
    core::ClusterConfig cc = benchCluster();

    struct Row
    {
        const char *name;
        Tick du;
        Tick au;
    };
    Row rows[3];
    // The AU runs need an adapter that snoops the memory bus.
    const bool has_au = bestAu(cc);

    {
        auto du = runRadixVmmc(cc, false, kProcs, radixConfig());
        Tick au =
            has_au ? runRadixVmmc(cc, true, kProcs, radixConfig()).elapsed
                   : 0;
        rows[0] = {"Radix-VMMC", du.elapsed, au};
    }
    {
        auto du = runOceanNx(cc, false, kProcs, oceanConfig());
        Tick au = has_au ? runOceanNx(cc, true, kProcs, oceanConfig()).elapsed
                         : 0;
        rows[1] = {"Ocean-NX", du.elapsed, au};
    }
    {
        auto du = runBarnesNx(cc, false, kProcs, barnesNxConfig());
        Tick au =
            has_au ? runBarnesNx(cc, true, kProcs, barnesNxConfig()).elapsed
                   : 0;
        rows[2] = {"Barnes-NX", du.elapsed, au};
    }

    if (!has_au) {
        std::printf("%-14s %12s\n", "app", "DU (ms)");
        for (const Row &r : rows)
            std::printf("%-14s %12.2f\n", r.name, toSeconds(r.du) * 1e3);
        std::printf("\nnote: AU column and verdict skipped: the %s NIC "
                    "has no automatic update\n",
                    nic::nicKindName(cc.nicKind));
        return 0;
    }

    std::printf("%-14s %12s %12s %14s\n", "app", "DU (ms)", "AU (ms)",
                "AU/DU time");
    for (const Row &r : rows) {
        std::printf("%-14s %12.2f %12.2f %14.3f\n", r.name,
                    toSeconds(r.du) * 1e3, toSeconds(r.au) * 1e3,
                    double(r.au) / double(r.du));
    }

    // Shape: AU wins big for Radix-VMMC; AU is NOT a significant win
    // for the message-passing applications (their bulk transfers ride
    // DU's DMA; small slack covers Barnes-NX's fine-grained variant).
    bool ok = rows[0].au < rows[0].du;
    double radix_gain = double(rows[0].du) / double(rows[0].au);
    ok = ok && radix_gain > 1.5;
    ok = ok && rows[1].au > rows[1].du * 0.90; // Ocean-NX: AU no win
    ok = ok && rows[2].au > rows[2].du * 0.85; // Barnes-NX: AU no win

    std::printf("\nRadix-VMMC AU gain: %.2fx (paper: 3.4x on speedup)\n",
                radix_gain);
    std::printf("shape (AU >> DU for Radix-VMMC; AU no win for NX "
                "apps): %s\n",
                ok ? "HOLDS" : "VIOLATED");
    return ok ? 0 : 1;
}
