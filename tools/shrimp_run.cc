/**
 * @file
 * shrimp_run — run any of the paper's workloads on any configuration
 * of the simulated SHRIMP cluster from the command line.
 *
 * Examples:
 *   shrimp_run --app radix-vmmc --procs 16 --au
 *   shrimp_run --app radix-svm --protocol aurc --keys 524288
 *   shrimp_run --app barnes-svm --procs 8 --no-udma
 *   shrimp_run --app radix-svm --stats-json report.json --trace t.json
 *
 * Every what-if knob of the paper's Sec 4 is exposed: kernel-mediated
 * sends (--no-udma), forced per-message interrupts, combining, FIFO
 * capacity, DU queue depth, and the baseline Myrinet-style NIC.
 * Observability: --stats-json writes the machine-readable RunReport,
 * --trace records a Chrome trace_event timeline (see README). The
 * flags and their SHRIMP_* twins are rows of one knob table
 * (core/run_config.hh), which also generates --help.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "apps/barnes.hh"
#include "apps/dfs.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "apps/render.hh"
#include "core/run_config.hh"
#include "nic/nic_kind.hh"
#include "sim/causal.hh"
#include "sim/logging.hh"
#include "sim/run_report.hh"
#include "sim/trace_json.hh"

using namespace shrimp;
using namespace shrimp::apps;
using shrimp::svm::Protocol;

namespace
{

constexpr const char *kApps[] = {
    "radix-svm", "radix-vmmc", "ocean-svm", "ocean-nx",
    "barnes-svm", "barnes-nx", "dfs", "render",
};

/** Print the usage and the knob table on stdout; exit @p status. */
[[noreturn]] void
usage(const char *argv0, int status = 2)
{
    std::printf("usage: %s --app <name> [options]\n\napps:", argv0);
    for (const char *name : kApps)
        std::printf(" %s", name);
    std::printf("\n\n%s", core::knobHelp().c_str());
    std::exit(status);
}

AppResult
runApp(const core::RunConfig &o, Protocol protocol, bool use_au)
{
    if (o.app == "radix-svm" || o.app == "radix-vmmc") {
        RadixConfig cfg;
        cfg.keys = o.keys;
        if (o.steps > 0)
            cfg.iterations = o.steps;
        if (o.seed)
            cfg.seed = o.seed;
        return o.app == "radix-svm"
                   ? runRadixSvm(o.cluster, protocol, o.procs, cfg)
                   : runRadixVmmc(o.cluster, use_au, o.procs, cfg);
    }
    if (o.app == "ocean-svm" || o.app == "ocean-nx") {
        OceanConfig cfg;
        cfg.n = o.grid;
        if (o.steps > 0)
            cfg.iterations = o.steps;
        return o.app == "ocean-svm"
                   ? runOceanSvm(o.cluster, protocol, o.procs, cfg)
                   : runOceanNx(o.cluster, use_au, o.procs, cfg);
    }
    if (o.app == "barnes-svm" || o.app == "barnes-nx") {
        BarnesConfig cfg;
        cfg.bodies = o.bodies;
        cfg.timesteps = o.steps > 0 ? o.steps : 2;
        if (o.seed)
            cfg.seed = o.seed;
        return o.app == "barnes-svm"
                   ? runBarnesSvm(o.cluster, protocol, o.procs, cfg)
                   : runBarnesNx(o.cluster, use_au, o.procs, cfg);
    }
    if (o.app == "dfs") {
        DfsConfig cfg;
        cfg.useAutomaticUpdate = use_au;
        cfg.auCombining = o.cluster.shrimpNic.combiningEnabled;
        return runDfs(o.cluster, cfg);
    }
    if (o.app == "render") {
        RenderConfig cfg;
        cfg.workers = o.procs - 1;
        cfg.useAutomaticUpdate = use_au;
        return runRender(o.cluster, cfg);
    }
    std::fprintf(stderr, "unknown app '%s' (try --list-apps)\n",
                 o.app.c_str());
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--help") == 0)
            usage(argv[0], 0);

    // Flags beat the environment, which beats the defaults.
    core::RunConfig o;
    std::string err;
    if (!core::applyEnv(o, err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 2;
    }
    if (!core::applyFlags(o, argc, argv, err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        usage(argv[0]);
    }
    if (o.listApps) {
        for (const char *name : kApps)
            std::printf("%s\n", name);
        return 0;
    }
    if (o.app.empty()) {
        std::fprintf(stderr, "%s: --app is required\n", argv[0]);
        usage(argv[0]);
    }

    int mesh_nodes = o.cluster.meshWidth * o.cluster.meshHeight;
    if (o.app != "dfs" && o.procs > mesh_nodes) {
        std::fprintf(stderr,
                     "%s: --procs %d exceeds the %dx%d mesh's %d "
                     "nodes\n",
                     argv[0], o.procs, o.cluster.meshWidth,
                     o.cluster.meshHeight, mesh_nodes);
        return 2;
    }

    // DFS/render default to DU like the paper's runs; the flag must
    // be given explicitly to force AU. Capability-adaptive defaults:
    // on a NIC without automatic update, the AU-defaulting paths fall
    // back to DU/HLRC unless forced explicitly (an explicit --au or
    // AU protocol still fatals downstream with a capability
    // diagnosis).
    bool can_au = nic::nicKindCaps(o.cluster.nicKind).autoUpdate;
    bool use_au = o.au.value_or(can_au && o.app != "dfs" &&
                                o.app != "render");
    Protocol protocol = o.protocol >= 0 ? Protocol(o.protocol)
                        : can_au        ? Protocol::AURC
                                        : Protocol::HLRC;

    core::activate(o);

    auto t0 = std::chrono::steady_clock::now();
    AppResult r = runApp(o, protocol, use_au);
    r.hostWallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    trace_json::close();
    causal::close();

    std::printf("app:            %s\n", r.name.c_str());
    std::printf("processors:     %d\n", r.nprocs);
    std::printf("elapsed:        %.3f ms simulated\n",
                toSeconds(r.elapsed) * 1e3);
    std::printf("messages:       %llu\n",
                (unsigned long long)r.messages);
    std::printf("notifications:  %llu\n",
                (unsigned long long)r.notifications);
    std::printf("checksum:       %llu\n",
                (unsigned long long)r.checksum);

    double total = double(r.combined.grandTotal());
    if (total > 0) {
        std::printf("time breakdown:");
        for (std::size_t c = 0;
             c < std::size_t(TimeCategory::kCount); ++c) {
            std::printf("  %s %.1f%%",
                        timeCategoryName(TimeCategory(c)),
                        100.0 * double(r.combined.total(
                                    TimeCategory(c))) /
                            total);
        }
        std::printf("\n");
    }

    if (!o.statsJson.empty()) {
        // CLI knobs ride along so the report identifies the exact run.
        r.param("cli_app", o.app);
        r.param("cli_procs", o.procs);
        // Always identify the adapter (report schema note: cli_nic is
        // unconditional since the three-NIC redesign; it used to be
        // emitted only for baseline runs).
        r.param("cli_nic", nic::nicKindName(o.cluster.nicKind));
        // The geometry identifies the run like the adapter does; the
        // analyzer shape-checks this param (see sim/report_schema.cc).
        r.param("mesh", strfmt("%dx%d", o.cluster.meshWidth,
                               o.cluster.meshHeight));
        if (!o.cluster.udmaSends)
            r.param("cli_no_udma", "1");
        const auto &f = o.cluster.network.fault;
        if (f.reliabilityEnabled()) {
            r.param("cli_fault_drop_rate", f.dropRate);
            r.param("cli_fault_corrupt_rate", f.corruptRate);
            r.param("cli_fault_jitter_rate", f.jitterRate);
            r.param("cli_fault_seed", f.seed);
            r.param("cli_fault_outages", f.outages.size());
        }
        makeReport(r, o.reportHost).writeFile(o.statsJson);
        std::printf("report:         %s\n", o.statsJson.c_str());
    }

    if (!o.metricsFile.empty()) {
        std::ofstream os(o.metricsFile,
                         std::ios::binary | std::ios::trunc);
        if (!os) {
            std::fprintf(stderr, "cannot write metrics to %s\n",
                         o.metricsFile.c_str());
            return 1;
        }
        bool csv = o.metricsFile.size() >= 4 &&
                   o.metricsFile.compare(o.metricsFile.size() - 4, 4,
                                         ".csv") == 0;
        if (csv)
            r.metrics.writeCsv(os);
        else
            r.metrics.writeJsonl(os, r.name, r.metricsInterval);
        std::printf("metrics:        %s (%zu samples)\n",
                    o.metricsFile.c_str(), r.metrics.sampleCount());
    }
    return 0;
}
