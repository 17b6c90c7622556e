/**
 * @file
 * hostbench_runner — the in-process half of the host-cost benchmark
 * (hostbench/run.py drives it; see hostbench/README.md).
 *
 *   hostbench_runner --workload W --seed N --phase setup|full
 *                    --scratch DIR [--trace]
 *
 * One invocation runs one phase of one workload and prints one JSON
 * object on stdout: the host wall/CPU time of the phase, the process's
 * peak RSS, and every app run's simulated results for the output
 * oracle. The "setup" phase is the same workload with zero measured
 * iterations, so it costs exactly the cluster build, the app's
 * export/import/AU-bind phase and teardown. --trace adds a span per
 * call into a layer's public function (kept in memory, printed at the
 * end) and each run's RunReport, from which run.py reads the
 * per-layer counters.
 *
 * Interface discipline: only the surface the ROADMAP keeps is used —
 * apps::run* with their config structs, ClusterConfig geometry and
 * NIC, core::Cluster, causal::open/close, causal_read and
 * apps::makeReport/RunReport — so deletions elsewhere cannot stop the
 * benchmark from compiling.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "apps/barnes.hh"
#include "apps/dfs.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "apps/render.hh"
#include "sim/causal.hh"
#include "sim/causal_read.hh"

using namespace shrimp;
using namespace shrimp::apps;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Spans around the benchmark's own calls into each layer. */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on(on), origin(Clock::now()) {}

    /** RAII span: open on construction, close on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name) : log(log)
        {
            if (!log.on)
                return;
            idx = int(log.spans.size());
            log.spans.push_back(
                {name, log.now(), 0.0, log.open.empty() ? -1
                                                        : log.open.back()});
            log.open.push_back(idx);
        }

        ~Scope()
        {
            if (idx < 0)
                return;
            log.spans[std::size_t(idx)].end = log.now();
            log.open.pop_back();
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log;
        int idx = -1;
    };

    void
    print(std::FILE *out) const
    {
        std::fprintf(out, "[");
        for (std::size_t i = 0; i < spans.size(); ++i)
            std::fprintf(out,
                         "%s{\"name\":\"%s\",\"start_s\":%.9f,"
                         "\"end_s\":%.9f,\"parent\":%d}",
                         i ? "," : "", spans[i].name.c_str(),
                         spans[i].start, spans[i].end, spans[i].parent);
        std::fprintf(out, "]");
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        int parent; //!< index into spans, -1 for a root
    };

    double now() const { return secondsSince(origin); }

    bool on;
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** One app run of a workload: its cluster and the apps::run* call. */
struct AppRun
{
    core::ClusterConfig cc;
    std::function<AppResult()> run;
};

core::ClusterConfig
meshConfig(int width, int height, core::NicKind kind)
{
    core::ClusterConfig cc;
    cc.meshWidth = width;
    cc.meshHeight = height;
    cc.nicKind = kind;
    return cc;
}

/**
 * The Table-1 suite at the quick sizes of bench/bench_common.hh
 * (16 ranks on the 4x4 mesh), each app on its best variant for the
 * NIC: AURC/AU where the adapter has automatic update, HLRC/DU
 * elsewhere. Copied rather than included so the benchmark depends on
 * the apps layer only.
 */
std::vector<AppRun>
table1(core::NicKind kind, std::uint64_t seed, bool setup)
{
    core::ClusterConfig cc = meshConfig(4, 4, kind);
    bool au = kind == core::NicKind::Shrimp;
    svm::Protocol proto = au ? svm::Protocol::AURC : svm::Protocol::HLRC;

    RadixConfig radix;
    radix.keys = 256 * 1024;
    radix.iterations = setup ? 0 : 2;
    radix.seed += seed;
    OceanConfig ocean;
    ocean.n = 130;
    ocean.iterations = setup ? 0 : 10;
    BarnesConfig barnes_svm;
    barnes_svm.bodies = 4096;
    barnes_svm.timesteps = setup ? 0 : 2;
    barnes_svm.seed += seed;
    BarnesConfig barnes_nx;
    barnes_nx.bodies = 2048;
    barnes_nx.timesteps = setup ? 0 : 3;
    barnes_nx.seed += seed;
    DfsConfig dfs;
    dfs.filesPerClient = setup ? 0 : 3;
    dfs.blocksPerFile = 32;
    RenderConfig render;
    render.imageSize = setup ? 32 : 192; // one 32x32 tile when set up
    render.tileSize = 32;
    render.volumeBytes = 512 * 1024;
    render.seed += seed;

    return {
        {cc, [=] { return runBarnesSvm(cc, proto, 16, barnes_svm); }},
        {cc, [=] { return runOceanSvm(cc, proto, 16, ocean); }},
        {cc, [=] { return runRadixSvm(cc, proto, 16, radix); }},
        {cc, [=] { return runRadixVmmc(cc, au, 16, radix); }},
        {cc, [=] { return runBarnesNx(cc, false, 16, barnes_nx); }},
        {cc, [=] { return runOceanNx(cc, au, 16, ocean); }},
        {cc, [=] { return runDfs(cc, dfs); }},
        {cc, [=] { return runRender(cc, render); }},
    };
}

/** The workload's app runs, in order; empty for an unknown name. */
std::vector<AppRun>
workloadRuns(const std::string &w, std::uint64_t seed, bool setup)
{
    // The two big single runs of ROADMAP aim 1, AU on 256 ranks.
    core::ClusterConfig mesh16 = meshConfig(16, 16, core::NicKind::Shrimp);
    if (w == "radix-vmmc-16x16") {
        RadixConfig cfg;
        cfg.keys = 262144;
        cfg.iterations = setup ? 0 : 3;
        cfg.seed += seed;
        return {{mesh16,
                 [=] { return runRadixVmmc(mesh16, true, 256, cfg); }}};
    }
    if (w == "ocean-nx-16x16" || w == "ocean-nx-16x16-causal") {
        OceanConfig cfg;
        cfg.n = 514;
        if (setup)
            cfg.iterations = 0;
        return {{mesh16,
                 [=] { return runOceanNx(mesh16, true, 256, cfg); }}};
    }
    if (w != "table1-3nic")
        return {};
    std::vector<AppRun> runs;
    for (auto kind : {core::NicKind::Shrimp, core::NicKind::Baseline,
                      core::NicKind::Modern})
        for (auto &r : table1(kind, seed, setup))
            runs.push_back(std::move(r));
    return runs;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::uintmax_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : n;
}

/** What the causal workload's observability steps produced. */
struct CausalOut
{
    std::uintmax_t logBytes = 0;
    std::uintmax_t reportBytes = 0;
    std::size_t spans = 0;
    bool valid = false;
    std::string error;
    causal_read::CriticalPath cp;
    double pktTotalMeanPs = 0;
};

/**
 * Load and analyse the causal log the way `shrimp_analyze
 * --critical-path` does: validate, pick the longest coll.reduce (else
 * the longest root), reconstruct its critical path, and aggregate the
 * pkt.* stages.
 */
void
analyzeCausal(const std::string &path, SpanLog &spans, CausalOut &out)
{
    causal_read::Log log;
    {
        SpanLog::Scope s(spans, "tools.cp_load");
        if (!causal_read::load(path, log, &out.error))
            return;
    }
    SpanLog::Scope s(spans, "tools.cp_analyze");
    out.spans = log.spans.size();
    if (!causal_read::validate(log, &out.error))
        return;
    const causal_read::Span *root = causal_read::findRoot(log, "coll.reduce");
    if (!root)
        root = causal_read::findRoot(log, "");
    if (!root) {
        out.valid = out.spans == 0;
        return;
    }
    if (!causal_read::criticalPath(log, root->id, out.cp, &out.error))
        return;
    for (const auto &st : causal_read::packetStageStats(log))
        if (st.name == "pkt.total")
            out.pktTotalMeanPs = st.meanPs;
    std::uint64_t sum = 0;
    for (const auto &a : out.cp.stages)
        sum += a.ps;
    out.valid = sum == out.cp.totalPs;
    if (!out.valid)
        out.error = "critical-path stages do not partition the root";
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --phase setup|full "
                 "--scratch DIR [--trace]\n",
                 argv0);
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload, phase, scratch;
    std::uint64_t seed = 0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--trace") {
            trace = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(argv[0]);
        if (a == "--workload")
            workload = argv[++i];
        else if (a == "--seed")
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--phase")
            phase = argv[++i];
        else if (a == "--scratch")
            scratch = argv[++i];
        else
            usage(argv[0]);
    }
    bool setup = phase == "setup";
    std::vector<AppRun> runs = workloadRuns(workload, seed, setup);
    if (runs.empty() || (!setup && phase != "full") || scratch.empty())
        usage(argv[0]);
    bool causal_on = workload == "ocean-nx-16x16-causal";

    SpanLog spans(trace);
    if (trace && setup) {
        // The bare Cluster constructor and destructor of every run,
        // outside the timed phase: the part of set-up no app code is in.
        SpanLog::Scope s(spans, "core.cluster_build");
        for (const auto &r : runs)
            core::Cluster cluster(r.cc);
    }

    std::vector<AppResult> results;
    CausalOut causal_out;
    std::string log_path = scratch + "/causal.jsonl";
    std::string report_path = scratch + "/report.json";

    struct rusage ru0, ru1;
    getrusage(RUSAGE_SELF, &ru0);
    auto t0 = Clock::now();
    {
        SpanLog::Scope phase_span(spans, setup ? "apps.setup" : "apps.full");
        if (causal_on) {
            SpanLog::Scope s(spans, "obs.causal_open");
            causal::open(log_path);
        }
        for (auto &r : runs) {
            SpanLog::Scope s(spans, "apps.run");
            results.push_back(r.run());
        }
        if (causal_on) {
            {
                SpanLog::Scope s(spans, "obs.close");
                {
                    SpanLog::Scope c(spans, "obs.causal_close");
                    causal::close();
                }
                SpanLog::Scope w(spans, "obs.report_write");
                makeReport(results.front()).writeFile(report_path);
            }
            causal_out.logBytes = fileBytes(log_path);
            causal_out.reportBytes = fileBytes(report_path);
            analyzeCausal(log_path, spans, causal_out);
        }
    }
    double wall = secondsSince(t0);
    getrusage(RUSAGE_SELF, &ru1);
    std::filesystem::remove(log_path);
    std::filesystem::remove(report_path);

    auto tv = [](const timeval &a, const timeval &b) {
        return double(b.tv_sec - a.tv_sec) +
               double(b.tv_usec - a.tv_usec) * 1e-6;
    };
    std::printf("{\"workload\":%s,\"phase\":%s,\"seed\":%llu,"
                "\"wall_s\":%.9f,\"user_s\":%.6f,\"sys_s\":%.6f,"
                "\"peak_rss_kb\":%ld,\"runs\":[",
                jsonString(workload).c_str(), jsonString(phase).c_str(),
                (unsigned long long)seed, wall,
                tv(ru0.ru_utime, ru1.ru_utime),
                tv(ru0.ru_stime, ru1.ru_stime), ru1.ru_maxrss);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const AppResult &r = results[i];
        std::printf("%s{\"app\":%s,\"nic\":%s,\"elapsed_ps\":%llu,"
                    "\"messages\":%llu,\"notifications\":%llu,"
                    "\"checksum\":%llu,\"events\":%llu,"
                    "\"fiber_switches\":%llu",
                    i ? "," : "", jsonString(r.name).c_str(),
                    jsonString(nic::nicKindName(runs[i].cc.nicKind))
                        .c_str(),
                    (unsigned long long)r.elapsed,
                    (unsigned long long)r.messages,
                    (unsigned long long)r.notifications,
                    (unsigned long long)r.checksum,
                    (unsigned long long)r.hostEvents,
                    (unsigned long long)r.hostFiberSwitches);
        if (trace)
            std::printf(",\"report\":%s",
                        makeReport(r).toJson(false).c_str());
        std::printf("}");
    }
    std::printf("]");
    if (causal_on) {
        const CausalOut &c = causal_out;
        std::printf(",\"causal\":{\"valid\":%s,\"error\":%s,"
                    "\"log_bytes\":%llu,\"report_bytes\":%llu,"
                    "\"spans\":%zu,\"cp_total_ps\":%llu,"
                    "\"pkt_total_mean_ps\":%.6f,\"cp_stages\":{",
                    c.valid ? "true" : "false", jsonString(c.error).c_str(),
                    (unsigned long long)c.logBytes,
                    (unsigned long long)c.reportBytes, c.spans,
                    (unsigned long long)c.cp.totalPs, c.pktTotalMeanPs);
        for (std::size_t i = 0; i < c.cp.stages.size(); ++i)
            std::printf("%s%s:%llu", i ? "," : "",
                        jsonString(c.cp.stages[i].name).c_str(),
                        (unsigned long long)c.cp.stages[i].ps);
        std::printf("}}");
    }
    if (trace) {
        std::printf(",\"spans\":");
        spans.print(stdout);
    }
    std::printf("}\n");
    return 0;
}
