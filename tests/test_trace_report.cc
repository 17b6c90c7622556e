/**
 * @file
 * Tests for the observability layer: the Chrome trace_event view of
 * the causal span recorder (document validity, one event per logged
 * span, per-node tracks), the RunReport JSON serializer
 * (byte-stability across identical seeded runs), the Histogram
 * statistic, and the export/import teardown API (stale proxies fault,
 * RAII handles clean up).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/radix.hh"
#include "core/vmmc.hh"
#include "sim/causal.hh"
#include "sim/causal_read.hh"
#include "sim/run_report.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

// ----------------------------------------------------------------------
// A minimal JSON acceptance parser: enough to assert the trace is a
// complete, well-formed document without pulling in a JSON library.
// ----------------------------------------------------------------------

struct JsonChecker
{
    const char *p;
    const char *end;

    explicit JsonChecker(const std::string &s)
        : p(s.data()), end(s.data() + s.size())
    {
    }

    void
    ws()
    {
        while (p < end && std::isspace(static_cast<unsigned char>(*p)))
            ++p;
    }

    bool
    string()
    {
        if (p >= end || *p != '"')
            return false;
        ++p;
        while (p < end && *p != '"') {
            if (*p == '\\')
                ++p;
            ++p;
        }
        if (p >= end)
            return false;
        ++p; // closing quote
        return true;
    }

    bool
    number()
    {
        const char *start = p;
        if (p < end && (*p == '-' || *p == '+'))
            ++p;
        while (p < end &&
               (std::isdigit(static_cast<unsigned char>(*p)) ||
                *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                *p == '+'))
            ++p;
        return p != start;
    }

    bool
    value()
    {
        ws();
        if (p >= end)
            return false;
        switch (*p) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    literal(const char *lit)
    {
        std::size_t n = std::strlen(lit);
        if (std::size_t(end - p) < n || std::strncmp(p, lit, n) != 0)
            return false;
        p += n;
        return true;
    }

    bool
    object()
    {
        ++p; // '{'
        ws();
        if (p < end && *p == '}') {
            ++p;
            return true;
        }
        while (true) {
            ws();
            if (!string())
                return false;
            ws();
            if (p >= end || *p != ':')
                return false;
            ++p;
            if (!value())
                return false;
            ws();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            break;
        }
        if (p >= end || *p != '}')
            return false;
        ++p;
        return true;
    }

    bool
    array()
    {
        ++p; // '['
        ws();
        if (p < end && *p == ']') {
            ++p;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            ws();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            break;
        }
        if (p >= end || *p != ']')
            return false;
        ++p;
        return true;
    }

    /** Whole input is exactly one JSON value. */
    bool
    document()
    {
        if (!value())
            return false;
        ws();
        return p == end;
    }
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** One complete ("X") event, its numbers kept as written. */
struct SpanEvent
{
    int tid = -1;
    std::string ts, dur, name, span, parent, trace;
};

/** The raw text of the value after @p key: up to ',', '}' or '"'. */
std::string
tokenAfter(const std::string &line, const char *key)
{
    auto pos = line.find(key);
    if (pos == std::string::npos)
        return "";
    pos += std::strlen(key);
    return line.substr(pos, line.find_first_of(",}\"", pos) - pos);
}

/**
 * Extract every ph:"X" event and the tid -> track-name metadata,
 * counting the thread_name records in @p namings.
 */
void
parseTrace(const std::string &text, std::vector<SpanEvent> &spans,
           std::map<int, std::string> &trackNames, int &namings)
{
    std::istringstream in(text);
    std::string line;
    namings = 0;
    while (std::getline(in, line)) {
        if (line.find("\"ph\":\"M\"") != std::string::npos &&
            line.find("thread_name") != std::string::npos) {
            ++namings;
            trackNames[std::stoi(tokenAfter(line, "\"tid\":"))] =
                tokenAfter(line, "\"args\":{\"name\":\"");
        } else if (line.find("\"ph\":\"X\"") != std::string::npos) {
            SpanEvent e;
            e.tid = std::stoi(tokenAfter(line, "\"tid\":"));
            e.ts = tokenAfter(line, "\"ts\":");
            e.dur = tokenAfter(line, "\"dur\":");
            e.name = tokenAfter(line, "\"name\":\"");
            e.span = tokenAfter(line, "\"span\":");
            e.parent = tokenAfter(line, "\"parent\":");
            e.trace = tokenAfter(line, "\"trace\":");
            spans.push_back(e);
        }
    }
}

/** Picoseconds as exact microseconds: 12000345 -> "12.000345". */
std::string
micros(std::uint64_t ps)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  (unsigned long long)(ps / 1000000),
                  (unsigned long long)(ps % 1000000));
    return buf;
}

char *
pageBuf(Cluster &c, int node, std::size_t bytes)
{
    char *p =
        static_cast<char *>(c.node(node).mem().alloc(bytes, true));
    std::memset(p, 0, bytes);
    return p;
}

/** A small two-node conversation that exercises DU, AU and mesh. */
void
runTracedScenario()
{
    Cluster c;
    char *rbuf = pageBuf(c, 1, 8192);
    ExportId exp = kInvalidExport;

    c.spawnOn(1, "receiver", [&] {
        auto &ep = c.vmmc(1);
        exp = ep.exportBuffer(rbuf, 8192);
        ep.waitUntil([&] { return rbuf[0] == 3; });
    });
    c.spawnOn(0, "sender", [&] {
        auto &ep = c.vmmc(0);
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        ProxyId p = ep.import(1, exp);
        for (char i = 1; i <= 3; ++i) {
            c.sim().delay(microseconds(50));
            ep.send(p, &i, 1, 0);
        }
        ep.drainSends();
    });
    c.run();
}

} // anonymous namespace

// ----------------------------------------------------------------------
// Chrome trace: the causal recorder's second serializer
// ----------------------------------------------------------------------

/**
 * A run with both outputs: the Chrome file is one JSON document with
 * exactly one X event per causal-log span, carrying the span's name,
 * its times as exact microseconds and its links as args, on its
 * node's track; each node used is named once.
 */
TEST(TraceJson, OneEventPerCausalSpan)
{
    const std::string log_path = "test_trace_report.causal.jsonl";
    const std::string path = "test_trace_report.trace.json";
    causal::open(log_path, path);
    runTracedScenario();
    causal::close();

    std::string text = slurp(path);
    ASSERT_FALSE(text.empty());
    EXPECT_TRUE(JsonChecker(text).document())
        << "trace is not a complete JSON document";

    causal_read::Log log;
    std::string err;
    ASSERT_TRUE(causal_read::load(log_path, log, &err)) << err;
    ASSERT_FALSE(log.spans.empty());

    std::vector<SpanEvent> events;
    std::map<int, std::string> trackNames;
    int namings = 0;
    parseTrace(text, events, trackNames, namings);
    ASSERT_EQ(events.size(), log.spans.size());

    std::map<std::string, const SpanEvent *> bySpan;
    for (const SpanEvent &e : events)
        EXPECT_TRUE(bySpan.emplace(e.span, &e).second)
            << "span " << e.span << " has two events";
    std::map<int, int> nodes;
    for (const causal_read::Span &s : log.spans) {
        auto it = bySpan.find(std::to_string(s.id));
        ASSERT_NE(it, bySpan.end()) << "no event for span " << s.id;
        const SpanEvent &e = *it->second;
        EXPECT_EQ(e.name, s.name);
        EXPECT_EQ(e.ts, micros(s.startPs));
        EXPECT_EQ(e.dur, micros(s.durationPs()));
        EXPECT_EQ(e.parent, std::to_string(s.parent));
        EXPECT_EQ(e.trace, std::to_string(s.trace));
        EXPECT_EQ(e.tid, s.node + 1);
        nodes[s.node + 1] = s.node;
    }
    EXPECT_EQ(namings, int(nodes.size()));
    for (auto [tid, node] : nodes)
        EXPECT_EQ(trackNames[tid], "causal.node" + std::to_string(node));

    std::remove(log_path.c_str());
    std::remove(path.c_str());
}

/**
 * The recorder keeps no state across runs: a second identical run in
 * the same process writes the same Chrome file.
 */
TEST(TraceJson, IdenticalRunsInOneProcessWriteIdenticalTraces)
{
    const std::string path = "test_trace_report_twice.trace.json";
    std::string first, second;
    for (std::string *text : {&first, &second}) {
        causal::open("", path);
        runTracedScenario();
        causal::close();
        *text = slurp(path);
    }
    std::remove(path.c_str());
    ASSERT_FALSE(first.empty());
    EXPECT_TRUE(first == second)
        << "the second trace differs from the first ("
        << first.size() << " vs " << second.size() << " bytes)";
}

/** A run that records no span still writes a valid, empty timeline. */
TEST(TraceJson, RunWithoutSpansWritesValidJson)
{
    const std::string path = "test_trace_report_empty.trace.json";
    causal::open("", path);
    {
        Cluster c;
        c.spawnOn(0, "idle", [&] { c.sim().delay(microseconds(5)); });
        c.run();
    }
    causal::close();

    std::string text = slurp(path);
    std::remove(path.c_str());
    EXPECT_TRUE(JsonChecker(text).document()) << text;
    std::vector<SpanEvent> events;
    std::map<int, std::string> trackNames;
    int namings = 0;
    parseTrace(text, events, trackNames, namings);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(namings, 0);
    EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
}

// ----------------------------------------------------------------------
// Run reports
// ----------------------------------------------------------------------

namespace
{

apps::AppResult
seededRadixRun()
{
    core::ClusterConfig cc;
    apps::RadixConfig cfg;
    cfg.keys = 16384;
    cfg.iterations = 1;
    cfg.seed = 424242;
    return apps::runRadixSvm(cc, svm::Protocol::AURC, 4, cfg);
}

} // anonymous namespace

TEST(RunReport, ByteStableAcrossIdenticalSeededRuns)
{
    std::string a = apps::makeReport(seededRadixRun()).toJson();
    std::string b = apps::makeReport(seededRadixRun()).toJson();
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

TEST(RunReport, JsonIsWellFormedAndCarriesTheSchema)
{
    apps::AppResult r = seededRadixRun();
    RunReport rep = apps::makeReport(r);
    std::string json = rep.toJson();

    EXPECT_TRUE(JsonChecker(json).document());
    EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"app\": \"Radix-SVM\""), std::string::npos);
    EXPECT_NE(json.find("\"time_breakdown_ps\""), std::string::npos);
    EXPECT_NE(json.find("\"per_process\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"seed\": \"424242\""), std::string::npos);

    // Per-process breakdown covers every rank (Figure 4 categories).
    EXPECT_EQ(rep.perProcess.size(), 4u);
    EXPECT_EQ(rep.nprocs, 4);
    EXPECT_GT(rep.elapsed, 0u);

    // Compact mode is one line, also well-formed.
    std::string compact = rep.toJson(/*pretty=*/false);
    EXPECT_TRUE(JsonChecker(compact).document());
    EXPECT_EQ(compact.find('\n'), std::string::npos);
}

// ----------------------------------------------------------------------
// Histogram
// ----------------------------------------------------------------------

TEST(Histogram, BucketsPercentilesAndOutliers)
{
    Histogram h;
    h.configure(0.0, 10.0, 10);

    for (int rep = 0; rep < 10; ++rep)
        for (int v = 0; v < 10; ++v)
            h.sample(v + 0.5);

    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_EQ(h.bucketCount(), 10u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(h.bucket(i), 10u);

    EXPECT_NEAR(h.percentile(50), 5.0, 0.2);
    EXPECT_NEAR(h.percentile(95), 9.5, 0.2);
    // Extremes land on the actual smallest/largest samples.
    EXPECT_NEAR(h.percentile(0), 0.5, 0.5);
    EXPECT_NEAR(h.percentile(100), 9.5, 0.5);

    h.sample(-3.0);
    h.sample(40.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(), 102u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.bucketCount(), 10u); // config survives reset
}

TEST(Histogram, RegistryConfiguresOnFirstUseOnly)
{
    StatsRegistry stats;
    Histogram &h = stats.histogram("x", 0.0, 4.0, 4);
    h.sample(1.0);
    // Second lookup with different bounds must not reconfigure (that
    // would silently drop the samples).
    Histogram &again = stats.histogram("x", 0.0, 100.0, 7);
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.bucketCount(), 4u);
    EXPECT_EQ(again.count(), 1u);
}

// ----------------------------------------------------------------------
// Export/import teardown
// ----------------------------------------------------------------------

TEST(VmmcTeardown, SendAfterUnexportIsFatal)
{
    EXPECT_DEATH(
        {
            Cluster c;
            char *buf = pageBuf(c, 1, 4096);
            ExportId exp = kInvalidExport;
            bool withdrawn = false;
            c.spawnOn(1, "owner", [&] {
                exp = c.vmmc(1).exportBuffer(buf, 4096);
                c.sim().delay(microseconds(500));
                c.vmmc(1).unexport(exp);
                withdrawn = true;
            });
            c.spawnOn(0, "sender", [&] {
                while (exp == kInvalidExport)
                    c.sim().delay(microseconds(10));
                ProxyId p = c.vmmc(0).import(1, exp);
                while (!withdrawn)
                    c.sim().delay(microseconds(10));
                char v = 1;
                c.vmmc(0).send(p, &v, 1, 0); // stale: owner withdrew
            });
            c.run();
        },
        "stale proxy");
}

TEST(VmmcTeardown, SendAfterUnimportIsFatal)
{
    EXPECT_DEATH(
        {
            Cluster c;
            char *buf = pageBuf(c, 1, 4096);
            ExportId exp = kInvalidExport;
            c.spawnOn(1, "owner", [&] {
                exp = c.vmmc(1).exportBuffer(buf, 4096);
            });
            c.spawnOn(0, "sender", [&] {
                while (exp == kInvalidExport)
                    c.sim().delay(microseconds(10));
                ProxyId p = c.vmmc(0).import(1, exp);
                c.vmmc(0).unimport(p);
                char v = 1;
                c.vmmc(0).send(p, &v, 1, 0);
            });
            c.run();
        },
        "stale proxy");
}

TEST(VmmcTeardown, ImportOfWithdrawnExportIsFatal)
{
    EXPECT_DEATH(
        {
            Cluster c;
            char *buf = pageBuf(c, 1, 4096);
            ExportId exp = kInvalidExport;
            bool withdrawn = false;
            c.spawnOn(1, "owner", [&] {
                exp = c.vmmc(1).exportBuffer(buf, 4096);
                c.vmmc(1).unexport(exp);
                withdrawn = true;
            });
            c.spawnOn(0, "late", [&] {
                while (!withdrawn)
                    c.sim().delay(microseconds(10));
                c.vmmc(0).import(1, exp);
            });
            c.run();
        },
        "withdrawn");
}

TEST(VmmcTeardown, DoubleUnexportIsFatal)
{
    EXPECT_DEATH(
        {
            Cluster c;
            char *buf = pageBuf(c, 0, 4096);
            c.spawnOn(0, "p", [&] {
                ExportId exp = c.vmmc(0).exportBuffer(buf, 4096);
                c.vmmc(0).unexport(exp);
                c.vmmc(0).unexport(exp);
            });
            c.run();
        },
        "already withdrawn");
}

TEST(VmmcTeardown, HandlesReleaseMappingsOnScopeExit)
{
    Cluster c;
    char *buf = pageBuf(c, 1, 8192);
    ExportId exp = kInvalidExport;
    bool imported = false;

    c.spawnOn(1, "owner", [&] {
        ExportHandle h(c.vmmc(1), buf, 8192);
        exp = h.id();
        EXPECT_TRUE(bool(h));
        while (!imported)
            c.sim().delay(microseconds(10));
        c.sim().delay(microseconds(500));
        // Handle unexports when it leaves scope.
    });
    c.spawnOn(0, "user", [&] {
        while (exp == kInvalidExport)
            c.sim().delay(microseconds(10));
        {
            ImportHandle h(c.vmmc(0), 1, exp);
            EXPECT_TRUE(bool(h));
            EXPECT_EQ(c.vmmc(0).importSize(h.id()), 8192u);
            char v = 7;
            c.vmmc(0).send(h.id(), &v, 1, 0);
            c.vmmc(0).drainSends();
        }
        imported = true; // import handle gone; owner may withdraw
    });
    c.run();

    EXPECT_EQ(c.sim().stats().counterValue("node1.vmmc.unexports"), 1u);
    EXPECT_EQ(c.sim().stats().counterValue("node0.vmmc.unimports"), 1u);
}

TEST(VmmcTeardown, ReleaseDisarmsTheHandle)
{
    Cluster c;
    char *buf = pageBuf(c, 0, 4096);
    ExportId kept = kInvalidExport;

    c.spawnOn(0, "p", [&] {
        ExportHandle h(c.vmmc(0), buf, 4096);
        kept = h.release();
        EXPECT_FALSE(bool(h));
        // Destructor must not unexport after release().
    });
    c.run();

    EXPECT_NE(kept, kInvalidExport);
    EXPECT_EQ(c.sim().stats().counterValue("node0.vmmc.unexports"), 0u);
}
