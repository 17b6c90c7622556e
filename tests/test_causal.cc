/**
 * @file
 * Causal-tracing tests (sim/causal.hh + sim/causal_read.hh):
 *
 *   - tracing is an observer: enabling it changes neither the
 *     workload checksum nor one byte of the RunReport;
 *   - the emitted span DAG holds its invariants (unique ids, parents
 *     present, consistent trace ids, children never start before
 *     their parents), including under packet retransmission, where
 *     retransmits must reuse the original send's context;
 *   - the critical-path reconstruction is an exact partition of the
 *     chosen operation's interval;
 *   - per-stage packet span means equal the lifecycle histogram
 *     means (the PR-4 cross-check);
 *   - the reader's contract: one flat object per line, keys in any
 *     order, exact 64-bit integers, and every malformed line rejected
 *     with its path and line number.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "apps/app_common.hh"
#include "apps/radix.hh"
#include "sim/causal.hh"
#include "sim/causal_read.hh"
#include "sim/lifecycle.hh"
#include "sim/logging.hh"
#include "sim/run_report.hh"

using namespace shrimp;

namespace
{

std::string
tmpPath(const char *name)
{
    return testing::TempDir() + name;
}

/** The pinned workload every test runs (matches test_golden's). */
apps::AppResult
pinnedRadix(const core::ClusterConfig &cc)
{
    apps::RadixConfig cfg;
    cfg.keys = 8 * 1024;
    return apps::runRadixVmmc(cc, /*au=*/true, /*procs=*/4, cfg);
}

/** Run pinnedRadix with the causal recorder writing to @p path. */
apps::AppResult
tracedRadix(const core::ClusterConfig &cc, const std::string &path)
{
    causal::open(path);
    apps::AppResult r = pinnedRadix(cc);
    causal::close();
    return r;
}

/** Load + validate a causal log, failing the test on any error. */
causal_read::Log
loadValid(const std::string &path)
{
    causal_read::Log log;
    std::string err;
    EXPECT_TRUE(causal_read::load(path, log, &err)) << err;
    EXPECT_TRUE(causal_read::validate(log, &err)) << err;
    return log;
}

/** Write @p text to a scratch file; @return its path. */
std::string
writeLog(const char *name, const std::string &text)
{
    std::string path = tmpPath(name);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    return path;
}

const char *const kHeader = "{\"causal_schema\":1}\n";

/** One span line exactly as the writer prints it. */
std::string
spanLine(std::uint64_t id, std::uint64_t parent, std::uint64_t trace,
         const char *name, std::uint64_t start, std::uint64_t end)
{
    return strfmt("{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                  "\"node\":3,\"name\":\"%s\",\"start_ps\":%llu,"
                  "\"end_ps\":%llu}\n",
                  (unsigned long long)id, (unsigned long long)parent,
                  (unsigned long long)trace, name,
                  (unsigned long long)start, (unsigned long long)end);
}

} // anonymous namespace

/**
 * Tracing must be a pure observer: same checksum, same simulated
 * time, byte-identical report with the recorder on vs off.
 */
TEST(Causal, TracingDoesNotPerturbTheRun)
{
    core::ClusterConfig cc;
    auto base = pinnedRadix(cc);
    auto traced = tracedRadix(cc, tmpPath("causal_perturb.jsonl"));

    EXPECT_EQ(base.checksum, traced.checksum);
    EXPECT_EQ(base.elapsed, traced.elapsed);
    EXPECT_EQ(apps::makeReport(base).toJson(true),
              apps::makeReport(traced).toJson(true));
}

/** The span DAG of a clean run holds its invariants. */
TEST(Causal, SpanDagInvariantsHold)
{
    std::string path = tmpPath("causal_dag.jsonl");
    tracedRadix(core::ClusterConfig{}, path);
    causal_read::Log log = loadValid(path);
    ASSERT_FALSE(log.spans.empty());

    // Every layer the radix-vmmc datapath crosses shows up.
    bool saw_coll = false, saw_vmmc = false, saw_pkt = false;
    for (const auto &s : log.spans) {
        saw_coll |= s.name.rfind("coll.", 0) == 0;
        saw_vmmc |= s.name.rfind("vmmc.", 0) == 0;
        saw_pkt |= s.name.rfind("pkt.", 0) == 0;
    }
    EXPECT_TRUE(saw_coll);
    EXPECT_TRUE(saw_vmmc);
    EXPECT_TRUE(saw_pkt);
}

/**
 * Under a lossy fault plane, retransmissions must reuse the original
 * send's context: a nic.retx span is parented inside the trace of
 * the operation that first sent the packet. Packets born outside any
 * traced operation (radix's raw AU stores in the permutation loop)
 * legitimately retransmit as context-free roots, so the assertion is
 * that parented retransmits exist and link consistently — a resend
 * never invents a fresh trace for a packet that had one.
 */
TEST(Causal, RetransmitsReuseTheOriginalContext)
{
    core::ClusterConfig cc;
    cc.network.fault.dropRate = 0.005;
    cc.network.fault.seed = 7;
    std::string path = tmpPath("causal_retx.jsonl");
    auto r = tracedRadix(cc, path);
    ASSERT_GT(r.stats.counterValue("mesh.retransmits"), 0u);

    causal_read::Log log = loadValid(path);
    std::size_t retx = 0, parented = 0;
    for (const auto &s : log.spans) {
        if (s.name != "nic.retx")
            continue;
        ++retx;
        if (s.parent == 0)
            continue; // a causeless (raw-AU) packet's resend
        ++parented;
        const causal_read::Span *p = log.byId(s.parent);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(s.trace, p->trace);
        EXPECT_GE(s.startPs, p->startPs);
    }
    EXPECT_GT(retx, 0u);
    EXPECT_GT(parented, 0u)
        << "no retransmit kept its original send's context";
}

/**
 * The critical-path attribution is an exact partition: the per-name
 * picoseconds sum to the root interval, for every trace root.
 */
TEST(Causal, CriticalPathPartitionsTheRootExactly)
{
    std::string path = tmpPath("causal_cp.jsonl");
    tracedRadix(core::ClusterConfig{}, path);
    causal_read::Log log = loadValid(path);

    const causal_read::Span *longest =
        causal_read::findRoot(log, "coll.reduce");
    ASSERT_NE(longest, nullptr);

    std::size_t roots = 0;
    for (const auto &s : log.spans) {
        if (s.parent != 0)
            continue;
        ++roots;
        causal_read::CriticalPath cp;
        std::string err;
        ASSERT_TRUE(causal_read::criticalPath(log, s.id, cp, &err))
            << err;
        std::uint64_t sum = 0;
        for (const auto &a : cp.stages)
            sum += a.ps;
        EXPECT_EQ(sum, cp.totalPs)
            << "stage sum diverges for root " << s.name;
    }
    EXPECT_GT(roots, 0u);
}

/**
 * The pkt.* span means must equal the lifecycle histogram means: the
 * causal log and the PR-4 latency_breakdown measure the same packets
 * through independent plumbing.
 */
TEST(Causal, PacketStageMeansMatchLifecycleHistograms)
{
    core::ClusterConfig cc;
    cc.lifecycleTracing = true;
    std::string path = tmpPath("causal_xcheck.jsonl");
    auto r = tracedRadix(cc, path);
    causal_read::Log log = loadValid(path);

    auto stats = causal_read::packetStageStats(log);
    ASSERT_FALSE(stats.empty());
    for (const auto &ns : stats) {
        // "pkt.send_overhead" -> "lifecycle.send_overhead_us".
        std::string hist =
            "lifecycle." + ns.name.substr(4) + "_us";
        const Histogram *h = r.stats.findHistogram(hist);
        ASSERT_NE(h, nullptr) << hist;
        EXPECT_EQ(h->count(), ns.count) << hist;
        EXPECT_NEAR(h->mean(), ns.meanPs * 1e-6, 1e-6) << hist;
    }
}

/**
 * Every malformed log fails to load, naming the file and the line; a
 * duplicate id loads (it is a DAG fault, not a syntax fault) but
 * fails validation.
 */
TEST(CausalRead, RejectsMalformedLogs)
{
    const std::string good = spanLine(5, 0, 5, "nx.csend", 10, 20);
    struct Case
    {
        const char *what;
        std::string text;
        int line;
    };
    const Case cases[] = {
        {"no header", good, 1},
        {"wrong schema", "{\"causal_schema\":2}\n" + good, 1},
        {"truncated last line",
         kHeader + good + "{\"id\":6,\"parent\":5,\"tra", 3},
        {"trailing text", kHeader + good.substr(0, good.size() - 1) +
                              " x\n",
         2},
        {"non-numeric id", std::string(kHeader) + "{\"id\":\"5\"}\n", 2},
        {"bare-word id", std::string(kHeader) + "{\"id\":five}\n", 2},
        {"negative id", std::string(kHeader) + "{\"id\":-5}\n", 2},
        {"fractional start", kHeader + good + "{\"id\":6,\"start_ps\":1.5}\n",
         3},
        {"u64 overflow",
         std::string(kHeader) + "{\"id\":18446744073709551616}\n", 2},
        {"id 0", kHeader + good + "\n{\"id\":0,\"name\":\"x\"}\n", 4},
        {"not an object", std::string(kHeader) + "[1,2]\n", 2},
        {"escaped name",
         std::string(kHeader) + "{\"id\":5,\"name\":\"a\\\"b\"}\n", 2},
    };
    for (const Case &c : cases) {
        std::string path = writeLog("causal_bad.jsonl", c.text);
        causal_read::Log log;
        std::string err;
        EXPECT_FALSE(causal_read::load(path, log, &err)) << c.what;
        EXPECT_EQ(err.rfind(strfmt("%s:%d: ", path.c_str(), c.line), 0),
                  0u)
            << c.what << ": " << err;
    }

    std::string path =
        writeLog("causal_dup.jsonl", kHeader + good + good);
    causal_read::Log log;
    std::string err;
    ASSERT_TRUE(causal_read::load(path, log, &err)) << err;
    EXPECT_EQ(log.spans.size(), 2u);
    EXPECT_FALSE(causal_read::validate(log, &err));
    EXPECT_NE(err.find("duplicate span id 5"), std::string::npos) << err;
}

/** Key order, JSON whitespace and unknown keys do not change a span. */
TEST(CausalRead, AcceptsAnyKeyOrderAndWhitespace)
{
    std::string canonical = spanLine(7, 0, 7, "vmmc.send", 100, 250);
    std::string shuffled =
        " { \"end_ps\" : 250 ,\t\"name\":\"vmmc.send\", \"extra\": "
        "\"skip me\", \"trace\":7,\"start_ps\":100 , \"node\" :3,"
        "\"weight\":-12,\"parent\":0,\"id\":7 }\r\n";
    causal_read::Log a, b;
    std::string err;
    ASSERT_TRUE(causal_read::load(
        writeLog("causal_a.jsonl", kHeader + canonical), a, &err))
        << err;
    ASSERT_TRUE(causal_read::load(
        writeLog("causal_b.jsonl",
                 " {\"note\":\"x\", \"causal_schema\" : 1}\n\n" + shuffled),
        b, &err))
        << err;
    ASSERT_EQ(a.spans.size(), 1u);
    ASSERT_EQ(b.spans.size(), 1u);
    const causal_read::Span &x = a.spans[0], &y = b.spans[0];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.parent, y.parent);
    EXPECT_EQ(x.trace, y.trace);
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.startPs, y.startPs);
    EXPECT_EQ(x.endPs, y.endPs);
    EXPECT_EQ(y.node, 3);
    EXPECT_EQ(y.name, "vmmc.send");
    EXPECT_TRUE(causal_read::validate(b, &err)) << err;
}

/**
 * Ids and timestamps are exact 64-bit integers, not doubles: 2^53+1
 * and 2^60+3 survive the round trip, and so does the largest u64.
 */
TEST(CausalRead, ReadsIntegersExactly)
{
    const std::uint64_t id = (std::uint64_t(1) << 53) + 1;
    const std::uint64_t start = (std::uint64_t(1) << 60) + 3;
    const std::uint64_t end = ~std::uint64_t(0);
    std::string path = writeLog(
        "causal_exact.jsonl",
        kHeader + spanLine(id, 0, id, "bsp.sync", start, end) +
            spanLine(id + 2, id, id, "pkt.total", start + 2, start + 4));
    causal_read::Log log;
    std::string err;
    ASSERT_TRUE(causal_read::load(path, log, &err)) << err;
    ASSERT_TRUE(causal_read::validate(log, &err)) << err;
    ASSERT_EQ(log.spans.size(), 2u);
    EXPECT_EQ(log.spans[0].id, id);
    EXPECT_EQ(log.spans[0].startPs, start);
    EXPECT_EQ(log.spans[0].endPs, end);
    EXPECT_EQ(log.spans[1].parent, id);
    EXPECT_EQ(log.byId(id + 2), &log.spans[1]);
    EXPECT_EQ(log.byId(id + 1), nullptr);
    EXPECT_EQ(log.parentOf(log.spans[1]), &log.spans[0]);
    ASSERT_EQ(log.childrenOf(id).size(), 1u);
    EXPECT_EQ(log.childrenOf(id)[0], 1u);
}

/** A log written out of id order loads sorted, indices intact. */
TEST(CausalRead, SortsAnOutOfOrderLog)
{
    std::string path = writeLog(
        "causal_unsorted.jsonl",
        kHeader + spanLine(9, 4, 4, "pkt.total", 5, 6) +
            spanLine(4, 0, 4, "nx.csend", 1, 8) +
            spanLine(6, 4, 4, "pkt.total", 2, 3));
    causal_read::Log log;
    std::string err;
    ASSERT_TRUE(causal_read::load(path, log, &err)) << err;
    ASSERT_TRUE(causal_read::validate(log, &err)) << err;
    ASSERT_EQ(log.spans.size(), 3u);
    EXPECT_EQ(log.spans[0].id, 4u);
    EXPECT_EQ(log.spans[1].id, 6u);
    EXPECT_EQ(log.spans[2].id, 9u);
    auto kids = log.childrenOf(4);
    ASSERT_EQ(kids.size(), 2u);
    EXPECT_EQ(log.spans[kids[0]].id, 6u);
    EXPECT_EQ(log.spans[kids[1]].id, 9u);
    EXPECT_EQ(log.spans[1].name.data(), log.spans[2].name.data())
        << "equal names share one interned copy";
}

/**
 * The loader streams the file in fixed-size chunks: lines straddling
 * chunk boundaries and a line longer than a whole chunk load intact.
 */
TEST(CausalRead, StreamsAcrossChunkBoundaries)
{
    std::string text = kHeader;
    const std::uint64_t kSpans = 20000; // several chunks of lines
    for (std::uint64_t id = 1; id <= kSpans; ++id)
        text += spanLine(id, 0, id, "coll.reduce", id, 2 * id);
    text += "{\"id\":" + std::to_string(kSpans + 1) +
            ",\"trace\":" + std::to_string(kSpans + 1) +
            ",\"pad\":\"" + std::string(1 << 20, 'x') + "\"}";
    causal_read::Log log;
    std::string err;
    ASSERT_TRUE(causal_read::load(writeLog("causal_big.jsonl", text),
                                  log, &err))
        << err;
    ASSERT_EQ(log.spans.size(), kSpans + 1);
    for (std::uint64_t i = 0; i < kSpans; ++i) {
        ASSERT_EQ(log.spans[i].id, i + 1);
        ASSERT_EQ(log.spans[i].endPs, 2 * (i + 1));
        ASSERT_EQ(log.spans[i].name, "coll.reduce");
    }
    EXPECT_EQ(log.spans.back().name, "");
    EXPECT_TRUE(causal_read::validate(log, &err)) << err;
}
