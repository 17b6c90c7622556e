/**
 * @file
 * Golden-file regression tests: pinned runs must reproduce their
 * checked-in observability artifacts byte for byte — the RunReport
 * JSON of a fault-plane run, the flight-recorder metrics JSONL of a
 * fault-free run, the RunReports of the NX and AU-bound SVM runs
 * on all three NICs, the packet-trace outputs (lifecycle RunReport
 * plus causal log) on all three NICs and under faults, and what the
 * causal-log reader makes of four such logs. Any datapath
 * "optimization" that perturbs these files changed simulated
 * behaviour, not just host speed.
 *
 * The files live in tests/golden/ (path baked in via the
 * SHRIMP_TEST_GOLDEN_DIR compile definition). To regenerate after an
 * intentional behaviour or schema change:
 *
 *     SHRIMP_REGEN_GOLDEN=1 ./tests/test_golden
 *
 * and commit the rewritten files together with the change that
 * motivated them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/app_common.hh"
#include "apps/barnes.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "sim/causal.hh"
#include "sim/causal_read.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/run_report.hh"

using namespace shrimp;

namespace
{

std::string
goldenPath(const char *file)
{
    return std::string(SHRIMP_TEST_GOLDEN_DIR) + "/" + file;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
regenerating()
{
    const char *v = std::getenv("SHRIMP_REGEN_GOLDEN");
    return v && *v && std::string(v) != "0";
}

/**
 * Compare @p actual against the checked-in golden, or rewrite the
 * golden when SHRIMP_REGEN_GOLDEN is set.
 */
void
checkGolden(const char *file, const std::string &actual)
{
    std::string path = goldenPath(file);
    if (regenerating()) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        os << actual;
        return;
    }
    std::string expect = slurp(path);
    ASSERT_FALSE(expect.empty())
        << path << " missing or empty; regenerate with "
        << "SHRIMP_REGEN_GOLDEN=1";
    // EXPECT_EQ on multi-KB strings produces an unreadable dump, so
    // locate the first divergence instead.
    if (actual != expect) {
        std::size_t i = 0;
        while (i < actual.size() && i < expect.size() &&
               actual[i] == expect[i])
            ++i;
        FAIL() << file << " diverges from golden at byte " << i
               << " (golden " << expect.size() << " bytes, actual "
               << actual.size() << "); context: \""
               << actual.substr(i > 40 ? i - 40 : 0, 80) << "\"";
    }
}

/** The pinned Radix-VMMC workload both goldens run. */
apps::AppResult
pinnedRadix(const core::ClusterConfig &cc)
{
    apps::RadixConfig cfg;
    cfg.keys = 8 * 1024;
    // Default pass count (3): enough traffic that the 0.5% fault
    // plane actually drops packets in the fault-run golden.
    return apps::runRadixVmmc(cc, /*au=*/true, /*procs=*/4, cfg);
}

} // anonymous namespace

/**
 * The fault-plane run: 0.5% drops, seed 7. Chosen so NACK-driven
 * go-back-N recovery happens (drops > 0, retransmits > 0) but no
 * retransmission timer ever fires — timer tuning (e.g. the adaptive
 * RTO) must leave this report untouched.
 */
TEST(Golden, FaultRunReportIsByteStable)
{
    core::ClusterConfig cc;
    cc.network.fault.dropRate = 0.005;
    cc.network.fault.seed = 7;
    auto r = pinnedRadix(cc);

    // The run exercises the recovery path but not the timer path;
    // guard that before comparing bytes so a config drift fails
    // with a readable message.
    ASSERT_GT(r.stats.counterValue("mesh.drops"), 0u);
    ASSERT_GT(r.stats.counterValue("mesh.retransmits"), 0u);
    ASSERT_EQ(r.stats.counterValue("mesh.rto_fires"), 0u);

    RunReport rep = apps::makeReport(r);
    checkGolden("fault_radix_report.json", rep.toJson(true));
}

/** The fault-free run's flight-recorder series, as JSONL. */
TEST(Golden, MetricsJsonlIsByteStable)
{
    core::ClusterConfig cc;
    cc.metricsInterval = microseconds(20);
    auto r = pinnedRadix(cc);

    ASSERT_GT(r.metrics.sampleCount(), 0u);
    std::ostringstream ss;
    r.metrics.writeJsonl(ss, r.name, r.metricsInterval);
    checkGolden("radix_metrics.jsonl", ss.str());
}

/**
 * The NX ring-polling and AU-binding paths: Ocean-NX and Barnes-NX
 * with deliberate update on every NIC and automatic update on the
 * SHRIMP NIC, both transports with a per-message interrupt (the
 * deliver hook runs a handler's time after the data lands), and
 * Ocean-SVM under AURC, whose page bindings go straight to the OPT.
 * One compact RunReport per line.
 */
TEST(Golden, NxAndAuSvmReportsAreByteStable)
{
    apps::OceanConfig ocean;
    ocean.n = 34;
    ocean.iterations = 4;
    apps::BarnesConfig barnes;
    barnes.bodies = 128;
    barnes.timesteps = 2;

    std::string lines;
    auto add = [&lines](const apps::AppResult &r) {
        ASSERT_NE(r.checksum, 0u) << r.name;
        lines += apps::makeReport(r).toJson(false);
        lines += '\n';
    };
    for (auto kind : {core::NicKind::Shrimp, core::NicKind::Baseline,
                      core::NicKind::Modern}) {
        core::ClusterConfig cc;
        cc.nicKind = kind;
        add(apps::runOceanNx(cc, /*use_au=*/false, 16, ocean));
        add(apps::runBarnesNx(cc, /*use_au=*/false, 16, barnes));
    }
    core::ClusterConfig shrimp;
    add(apps::runOceanNx(shrimp, /*use_au=*/true, 16, ocean));
    add(apps::runBarnesNx(shrimp, /*use_au=*/true, 16, barnes));

    core::ClusterConfig irq;
    irq.shrimpNic.interruptPerMessage = true;
    add(apps::runOceanNx(irq, /*use_au=*/false, 16, ocean));
    add(apps::runOceanNx(irq, /*use_au=*/true, 16, ocean));

    add(apps::runOceanSvm(shrimp, svm::Protocol::AURC, 16, ocean));
    checkGolden("nx_au_svm_reports.jsonl", lines);
}

namespace
{

/** 64-bit FNV-1a: a compact, portable digest of a large artifact. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Occurrences of @p needle in @p hay. */
std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (auto pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // anonymous namespace

/**
 * The two packet-trace sinks: each run has lifecycle tracing on and
 * the causal log open, and pins its RunReport (with the
 * latency_breakdown block) and a digest of its causal log (the logs
 * run to megabytes). Deliberate update on the SHRIMP, baseline and
 * modern NICs, automatic update on the SHRIMP NIC, and a 1% drop run
 * whose go-back-N resends emit nic.retx spans.
 */
TEST(Golden, PacketTraceOutputsAreByteStable)
{
    apps::RadixConfig radix;
    radix.keys = 4 * 1024;
    apps::OceanConfig ocean;
    ocean.n = 34;
    ocean.iterations = 2;
    const std::string log = testing::TempDir() + "golden_causal.jsonl";

    std::string lines;
    auto add = [&](const char *label, const core::ClusterConfig &base,
                   auto &&run) {
        core::ClusterConfig cc = base;
        cc.lifecycleTracing = true;
        causal::open(log);
        apps::AppResult r = run(cc);
        causal::close();
        std::string text = slurp(log);
        std::remove(log.c_str());

        RunReport rep = apps::makeReport(r);
        ASSERT_TRUE(rep.latency.enabled) << label;
        ASSERT_GT(countOf(text, "\"name\":\"pkt.total\""), 0u) << label;
        lines += rep.toJson(false);
        lines += '\n';
        lines += strfmt("{\"causal_log\":\"%s\",\"bytes\":%zu,"
                        "\"spans\":%zu,\"retx_spans\":%zu,"
                        "\"fnv1a64\":\"%016llx\"}\n",
                        label, text.size(),
                        countOf(text, "\n") - 1,
                        countOf(text, "\"name\":\"nic.retx\""),
                        (unsigned long long)fnv1a(text));
    };
    auto radixVmmc = [&](bool au) {
        return [&radix, au](const core::ClusterConfig &cc) {
            return apps::runRadixVmmc(cc, au, /*procs=*/4, radix);
        };
    };

    core::ClusterConfig shrimp;
    add("shrimp-du", shrimp, radixVmmc(false));
    add("shrimp-au", shrimp, [&ocean](const core::ClusterConfig &cc) {
        return apps::runOceanNx(cc, /*use_au=*/true, 16, ocean);
    });
    core::ClusterConfig baseline;
    baseline.nicKind = core::NicKind::Baseline;
    add("baseline", baseline, radixVmmc(false));
    core::ClusterConfig modern;
    modern.nicKind = core::NicKind::Modern;
    add("modern", modern, radixVmmc(false));
    core::ClusterConfig fault;
    fault.network.fault.dropRate = 0.01;
    fault.network.fault.seed = 7;
    add("fault-drop", fault, radixVmmc(true));

    ASSERT_EQ(countOf(lines, "\"retx_spans\":0,"), 4u)
        << "the drop run must emit nic.retx spans";
    checkGolden("packet_trace.jsonl", lines);
}

namespace
{

/**
 * What the causal-log reader yields for one log, as text: the span,
 * trace and nic.retx counts, the default critical path (the longest
 * coll.reduce, else the longest root; shrimp_analyze's choice) with
 * every stage, and the pkt.* stage means, doubles at full precision.
 */
std::string
readerSummary(const char *label, const std::string &path)
{
    causal_read::Log log;
    std::string err;
    EXPECT_TRUE(causal_read::load(path, log, &err)) << label << ": " << err;
    EXPECT_TRUE(causal_read::validate(log, &err)) << label << ": " << err;

    std::size_t traces = 0, retx = 0;
    for (const auto &s : log.spans) {
        traces += s.parent == 0;
        retx += s.name == "nic.retx";
    }
    std::string out =
        strfmt("log %s spans=%zu traces=%zu retx=%zu\n", label,
               log.spans.size(), traces, retx);
    const causal_read::Span *root =
        causal_read::findRoot(log, "coll.reduce");
    if (!root)
        root = causal_read::findRoot(log, "");
    if (root) {
        causal_read::CriticalPath cp;
        EXPECT_TRUE(causal_read::criticalPath(log, root->id, cp, &err))
            << label << ": " << err;
        out += strfmt("  cp root=%s id=%llu node=%d start_ps=%llu "
                      "end_ps=%llu total_ps=%llu\n",
                      cp.rootName.c_str(), (unsigned long long)cp.rootId,
                      root->node, (unsigned long long)cp.startPs,
                      (unsigned long long)cp.endPs,
                      (unsigned long long)cp.totalPs);
        for (const auto &a : cp.stages)
            out += strfmt("  stage %s ps=%llu segments=%llu\n",
                          a.name.c_str(), (unsigned long long)a.ps,
                          (unsigned long long)a.segments);
    }
    for (const auto &ns : causal_read::packetStageStats(log))
        out += strfmt("  pkt %s count=%llu mean_ps=%.17g\n",
                      ns.name.c_str(), (unsigned long long)ns.count,
                      ns.meanPs);
    return out;
}

} // anonymous namespace

/**
 * What the causal-log reader makes of real logs: Ocean-NX with
 * automatic update on the SHRIMP NIC (4x4 mesh), Radix-VMMC with
 * deliberate update on the baseline NIC, Radix-VMMC with automatic
 * update under 1% drops (nic.retx spans), and a header-only log. A
 * reader rewrite must leave every count, critical-path stage and
 * packet-stage mean unchanged.
 */
TEST(Golden, CausalReaderOutputsAreStable)
{
    apps::RadixConfig radix;
    radix.keys = 4 * 1024;
    apps::OceanConfig ocean;
    ocean.n = 34;
    ocean.iterations = 2;
    const std::string log = testing::TempDir() + "golden_reader.jsonl";

    std::string text;
    auto add = [&](const char *label, const core::ClusterConfig &cc,
                   auto &&run) {
        causal::open(log);
        run(cc);
        causal::close();
        text += readerSummary(label, log);
        std::remove(log.c_str());
    };

    core::ClusterConfig shrimp;
    ASSERT_EQ(shrimp.meshWidth, 4);
    ASSERT_EQ(shrimp.meshHeight, 4);
    add("ocean-nx-au-shrimp", shrimp,
        [&ocean](const core::ClusterConfig &cc) {
            return apps::runOceanNx(cc, /*use_au=*/true, 16, ocean);
        });
    core::ClusterConfig baseline;
    baseline.nicKind = core::NicKind::Baseline;
    add("radix-vmmc-du-baseline", baseline,
        [&radix](const core::ClusterConfig &cc) {
            return apps::runRadixVmmc(cc, /*au=*/false, 4, radix);
        });
    core::ClusterConfig fault;
    fault.network.fault.dropRate = 0.01;
    fault.network.fault.seed = 7;
    add("radix-vmmc-au-drop", fault,
        [&radix](const core::ClusterConfig &cc) {
            return apps::runRadixVmmc(cc, /*au=*/true, 4, radix);
        });
    add("header-only", shrimp,
        [](const core::ClusterConfig &) { return 0; });

    ASSERT_EQ(countOf(text, " retx=0\n"), 3u)
        << "the drop run must emit nic.retx spans";
    checkGolden("causal_reader.txt", text);
}
