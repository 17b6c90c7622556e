#include "core/run_config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include "sim/causal.hh"

namespace shrimp::core
{

/** The flag or variable being parsed, and its value. */
struct KnobArg
{
    const char *name;  //!< for messages
    const char *value; //!< null for a flag that takes no argument
    std::string *err;  //!< receives the message on failure

    /** Record "<name> <what>" as the error; @return false. */
    bool fail(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));
    bool real(double lo, double hi, double &out) const;
    bool integer(long lo, long hi, int &out) const;
    bool u64(std::uint64_t lo, std::uint64_t hi, std::uint64_t &out) const;
    /** A flag with no argument, or 0 / 1 from the environment. */
    bool boolean(bool &out) const;
    /** One of @p names; @p out gets its index. */
    bool choice(std::initializer_list<const char *> names, int &out) const;
};

bool
KnobArg::fail(const char *fmt, ...) const
{
    va_list ap;
    va_start(ap, fmt);
    *err = std::string(name) + " " + vstrfmt(fmt, ap);
    va_end(ap);
    return false;
}

bool
KnobArg::real(double lo, double hi, double &out) const
{
    // The whole value must be a plain decimal number: no sign, hex,
    // inf or nan, nothing trailing.
    const char *v = value;
    char *end = nullptr;
    errno = 0;
    double x = std::strtod(v, &end);
    bool plain = std::isdigit(static_cast<unsigned char>(*v)) || *v == '.';
    if (!plain || v[std::strspn(v, "0123456789.eE+-")] != '\0' ||
        *end != '\0' || errno == ERANGE || !(x >= lo && x <= hi))
        return fail("wants a number in [%g, %g], got '%s'", lo, hi, v);
    out = x;
    return true;
}

bool
KnobArg::integer(long lo, long hi, int &out) const
{
    char *end = nullptr;
    errno = 0;
    long n = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE || n < lo || n > hi)
        return fail("wants an integer in [%ld, %ld], got '%s'", lo, hi,
                    value);
    out = int(n);
    return true;
}

bool
KnobArg::u64(std::uint64_t lo, std::uint64_t hi, std::uint64_t &out) const
{
    // strtoull would wrap a sign, so the value must start with a digit.
    char *end = nullptr;
    errno = 0;
    unsigned long long n = std::strtoull(value, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*value)) || *end != '\0' ||
        errno == ERANGE || n < lo || n > hi)
        return fail("wants an integer in [%llu, %llu], got '%s'",
                    (unsigned long long)lo, (unsigned long long)hi, value);
    out = n;
    return true;
}

bool
KnobArg::boolean(bool &out) const
{
    if (!value || std::strcmp(value, "1") == 0)
        out = true;
    else if (std::strcmp(value, "0") == 0)
        out = false;
    else
        return fail("wants 0 or 1, got '%s'", value);
    return true;
}

bool
KnobArg::choice(std::initializer_list<const char *> names, int &out) const
{
    std::string want;
    int i = 0;
    for (const char *n : names) {
        if (std::strcmp(value, n) == 0) {
            out = i;
            return true;
        }
        if (i++)
            want += '|';
        want += n;
    }
    return fail("wants %s, got '%s'", want.c_str(), value);
}

namespace
{

constexpr long kIntMax = std::numeric_limits<int>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
// Durations stop at one simulated hour, far inside a Tick.
constexpr double kHourUs = 3600e6;

/** A comma-separated list of "link:t0us:t1us" outages, appended. */
bool
addOutages(RunConfig &rc, const KnobArg &a)
{
    std::istringstream specs(a.value);
    for (std::string one; std::getline(specs, one, ',');) {
        mesh::LinkOutage o;
        if (!mesh::parseLinkOutage(one, o))
            return a.fail("has a bad outage spec '%s' (want "
                          "LINK:T0us:T1us)",
                          one.c_str());
        rc.cluster.network.fault.outages.push_back(o);
    }
    return true;
}

/** Set a switch's field (a switch cannot fail). */
template <class T, class V>
bool
assign(T &field, V value)
{
    field = value;
    return true;
}

/** A text knob (a path or a name), taken as given. */
template <std::string RunConfig::*Field>
bool
setText(RunConfig &rc, const KnobArg &a)
{
    rc.*Field = a.value;
    return true;
}

using Arg = const KnobArg &;

const std::vector<Knob> kKnobs = {
    // ---- workload (shrimp_run only) ----
    {"--app", nullptr, "NAME", KnobSection::Workload,
     "the workload to run (required)", setText<&RunConfig::app>},
    {"--procs", nullptr, "N", KnobSection::Workload,
     "processors (default 16)", [](RunConfig &c, Arg a) {
         return a.integer(1, mesh::kMaxMeshNodes, c.procs);
     }},
    {"--protocol", nullptr, "P", KnobSection::Workload,
     "SVM protocol: hlrc | hlrc-au | aurc", [](RunConfig &c, Arg a) {
         // In svm::Protocol's order.
         return a.choice({"hlrc", "hlrc-au", "aurc"}, c.protocol);
     }},
    {"--au", nullptr, nullptr, KnobSection::Workload,
     "automatic-update variant (VMMC/NX/sockets apps)",
     [](RunConfig &c, Arg) { return assign(c.au, true); }},
    {"--du", nullptr, nullptr, KnobSection::Workload,
     "deliberate-update variant",
     [](RunConfig &c, Arg) { return assign(c.au, false); }},
    {"--keys", nullptr, "N", KnobSection::Workload,
     "radix keys (default 262144)", [](RunConfig &c, Arg a) {
         // Radix indexes keys with 32-bit positions.
         return a.u64(1, std::numeric_limits<std::uint32_t>::max(), c.keys);
     }},
    {"--grid", nullptr, "N", KnobSection::Workload,
     "ocean grid edge (default 130)",
     [](RunConfig &c, Arg a) { return a.integer(1, kIntMax, c.grid); }},
    {"--bodies", nullptr, "N", KnobSection::Workload,
     "barnes bodies (default 4096)",
     [](RunConfig &c, Arg a) { return a.integer(1, kIntMax, c.bodies); }},
    {"--steps", nullptr, "N", KnobSection::Workload, "iterations/timesteps",
     [](RunConfig &c, Arg a) { return a.integer(1, kIntMax, c.steps); }},
    {"--seed", nullptr, "N", KnobSection::Workload, "workload seed",
     [](RunConfig &c, Arg a) { return a.u64(0, kU64Max, c.seed); }},

    // ---- what-if knobs ----
    {"--mesh", "SHRIMP_MESH", "WxH", KnobSection::WhatIf,
     "mesh geometry (default 4x4, the paper's\n"
     "Paragon; try 16x16 or 32x32)",
     [](RunConfig &c, Arg a) {
         return parseMesh(a.value, c.cluster.meshWidth,
                          c.cluster.meshHeight) ||
                a.fail("'%s' is not a valid WxH mesh spec (at most %d "
                       "nodes)",
                       a.value, mesh::kMaxMeshNodes);
     }},
    {"--nic", "SHRIMP_NIC", "KIND", KnobSection::WhatIf,
     "shrimp (default) | baseline (Myrinet-\n"
     "style) | modern (RDMA-style: doorbells,\n"
     "completion queues, notifiable writes)",
     [](RunConfig &c, Arg a) {
         return nic::parseNicKind(a.value, c.cluster.nicKind) ||
                a.fail("'%s' is not a NIC kind (want "
                       "shrimp|baseline|modern)",
                       a.value);
     }},
    {"--no-udma", nullptr, nullptr, KnobSection::WhatIf,
     "system call before every send (Table 2)",
     [](RunConfig &c, Arg) { return assign(c.cluster.udmaSends, false); }},
    // The next four set ShrimpNicParams, which only the SHRIMP NIC
    // reads; applyFlags rejects them on any other NIC.
    {"--interrupt-per-message", nullptr, nullptr, KnobSection::WhatIf,
     "forced interrupts (Table 4)", [](RunConfig &c, Arg a) {
         c.shrimpNicFlag = a.name;
         return assign(c.cluster.shrimpNic.interruptPerMessage, true);
     }},
    {"--no-combining", nullptr, nullptr, KnobSection::WhatIf,
     "disable AU combining (Sec 4.5.1)", [](RunConfig &c, Arg a) {
         c.shrimpNicFlag = a.name;
         return assign(c.cluster.shrimpNic.combiningEnabled, false);
     }},
    {"--fifo", nullptr, "BYTES", KnobSection::WhatIf,
     "outgoing FIFO capacity (Sec 4.5.2)", [](RunConfig &c, Arg a) {
         int n = 0;
         bool ok = a.integer(1, kIntMax, n);
         c.cluster.shrimpNic.outFifoBytes = std::uint32_t(n);
         c.shrimpNicFlag = a.name;
         return ok;
     }},
    {"--du-queue", nullptr, "N", KnobSection::WhatIf,
     "DU request queue depth (Sec 4.5.3)", [](RunConfig &c, Arg a) {
         c.shrimpNicFlag = a.name;
         return a.integer(1, kIntMax, c.cluster.shrimpNic.duQueueDepth);
     }},

    // ---- fault injection ----
    {"--fault-drop-rate", "SHRIMP_FAULT_DROP_RATE", "P",
     KnobSection::Faults, "per-link-crossing drop probability",
     [](RunConfig &c, Arg a) {
         return a.real(0, 1, c.cluster.network.fault.dropRate);
     }},
    {"--fault-corrupt-rate", "SHRIMP_FAULT_CORRUPT_RATE", "P",
     KnobSection::Faults, "per-crossing corruption probability",
     [](RunConfig &c, Arg a) {
         return a.real(0, 1, c.cluster.network.fault.corruptRate);
     }},
    {"--fault-jitter-rate", "SHRIMP_FAULT_JITTER_RATE", "P",
     KnobSection::Faults, "per-crossing extra-delay probability",
     [](RunConfig &c, Arg a) {
         return a.real(0, 1, c.cluster.network.fault.jitterRate);
     }},
    {"--fault-max-jitter", "SHRIMP_FAULT_MAX_JITTER_NS", "NS",
     KnobSection::Faults, "max extra delay, nanoseconds (default 500)",
     [](RunConfig &c, Arg a) {
         double ns = 0;
         bool ok = a.real(0, kHourUs * 1e3, ns);
         c.cluster.network.fault.maxJitter = nanoseconds(ns);
         return ok;
     }},
    {"--fault-seed", "SHRIMP_FAULT_SEED", "N", KnobSection::Faults,
     "fault-plane RNG seed (default 1)", [](RunConfig &c, Arg a) {
         return a.u64(0, kU64Max, c.cluster.network.fault.seed);
     }},
    {"--fault-link-down", "SHRIMP_FAULT_LINK_DOWN", "L:T0:T1",
     KnobSection::Faults,
     "link L dead from T0 to T1 (us); repeatable,\n"
     "or a comma-separated list",
     addOutages,
     [](RunConfig &c) { c.cluster.network.fault.outages.clear(); }},
    {"--fault-reliability", "SHRIMP_FAULT_RELIABILITY", nullptr,
     KnobSection::Faults, "run the protocol with no faults",
     [](RunConfig &c, Arg a) {
         return a.boolean(c.cluster.network.fault.forceReliability);
     }},

    // ---- observability ----
    {"--stats-json", nullptr, "FILE", KnobSection::Observability,
     "write the JSON run report to FILE", setText<&RunConfig::statsJson>},
    {"--trace", "SHRIMP_TRACE", "FILE", KnobSection::Observability,
     "write the causal spans as a Chrome\n"
     "trace_event timeline (one track per node)",
     setText<&RunConfig::traceFile>},
    {"--metrics", "SHRIMP_METRICS", "FILE", KnobSection::Observability,
     "record the flight-recorder time series\n"
     "(.csv extension selects CSV, else JSONL;\n"
     "benches append JSONL series)",
     setText<&RunConfig::metricsFile>},
    {"--metrics-interval-us", "SHRIMP_METRICS_INTERVAL_US", "N",
     KnobSection::Observability, "sampling cadence (default 10)",
     [](RunConfig &c, Arg a) {
         double us = 0;
         bool ok = a.real(0, kHourUs, us);
         c.cluster.metricsInterval = microseconds(us);
         return ok;
     }},
    {"--lifecycle", "SHRIMP_LIFECYCLE", nullptr, KnobSection::Observability,
     "per-packet latency attribution; adds the\n"
     "latency_breakdown block to the report",
     [](RunConfig &c, Arg a) {
         return a.boolean(c.cluster.lifecycleTracing);
     }},
    {"--causal", "SHRIMP_CAUSAL", "FILE", KnobSection::Observability,
     "record the causal trace (parent-linked\n"
     "spans, JSONL); feed it to shrimp_analyze\n"
     "--critical-path",
     setText<&RunConfig::causalFile>},
    {nullptr, "SHRIMP_REPORT_HOST", "1", KnobSection::Observability,
     "host wall time, events/s, fiber switches\n"
     "and rusage in reports",
     [](RunConfig &c, Arg a) { return a.boolean(c.reportHost); }},

    // ---- host execution ----
    {"--watchdog-secs", "SHRIMP_WATCHDOG_SECS", "N", KnobSection::Host,
     "soak watchdog: dump progress state to\n"
     "stderr when simulated time stalls for N\n"
     "real seconds (SIGUSR1 dumps on demand)",
     [](RunConfig &c, Arg a) {
         return a.integer(0, kIntMax, c.cluster.watchdogSecs);
     }},
    {nullptr, "SHRIMP_LOG", "LEVEL", KnobSection::Host,
     "quiet | warn | info (default) | debug",
     [](RunConfig &c, Arg a) {
         int level = 0;
         bool ok = a.choice({"quiet", "warn", "info", "debug", "0", "1",
                             "2", "3"},
                            level);
         c.logLevel = LogLevel(level % 4);
         return ok;
     }},
    {"--list-apps", nullptr, nullptr, KnobSection::Host,
     "print the app names and exit",
     [](RunConfig &c, Arg) { return assign(c.listApps, true); }},

    // ---- bench harness ----
    {nullptr, "SHRIMP_REPORT_JSONL", "FILE", KnobSection::Harness,
     "append one compact RunReport per run", setText<&RunConfig::reportJsonl>},
    {nullptr, "SHRIMP_JOBS", "N", KnobSection::Harness,
     "sweep worker threads (default 1; 0 or\n"
     "less means 1, more than 64 means 64)",
     [](RunConfig &c, Arg a) {
         bool ok = a.integer(std::numeric_limits<int>::min(), kIntMax, c.jobs);
         c.jobs = std::clamp(c.jobs, 1, 64);
         return ok;
     }},
    {nullptr, "SHRIMP_SCALE", "SCALE", KnobSection::Harness,
     "quick (default) | full: the paper's\n"
     "problem sizes",
     [](RunConfig &c, Arg a) {
         int scale = 0;
         bool ok = a.choice({"quick", "full"}, scale);
         c.fullScale = scale == 1;
         return ok;
     }},
};

/** Naming a metrics file implies the default 10 us sampling cadence. */
void
impliedDefaults(RunConfig &rc)
{
    if (!rc.metricsFile.empty() && rc.cluster.metricsInterval == 0)
        rc.cluster.metricsInterval = microseconds(10);
}

} // anonymous namespace

const std::vector<Knob> &
knobs()
{
    return kKnobs;
}

bool
applyEnv(RunConfig &rc, std::string &err)
{
    for (const Knob &k : kKnobs) {
        if (!k.env)
            continue;
        // Set means non-empty: an empty variable is the default.
        const char *v = std::getenv(k.env);
        if (v && *v && !k.set(rc, {k.env, v, &err}))
            return false;
    }
    impliedDefaults(rc);
    return true;
}

bool
applyFlags(RunConfig &rc, int argc, char **argv, std::string &err)
{
    std::vector<bool> seen(kKnobs.size(), false);
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto k = std::find_if(kKnobs.begin(), kKnobs.end(),
                              [a](const Knob &k) {
                                  return k.flag && std::strcmp(k.flag, a) == 0;
                              });
        if (k == kKnobs.end()) {
            err = strfmt("unknown option '%s'", a);
            return false;
        }
        const char *v = nullptr;
        if (k->arg) {
            if (i + 1 >= argc) {
                err = strfmt("%s needs an argument", a);
                return false;
            }
            v = argv[++i];
        }
        std::size_t row = std::size_t(k - kKnobs.begin());
        if (k->clear && !seen[row])
            k->clear(rc);
        seen[row] = true;
        if (!k->set(rc, {k->flag, v, &err}))
            return false;
    }
    if (rc.shrimpNicFlag && rc.cluster.nicKind != nic::NicKind::Shrimp) {
        err = strfmt("%s applies to the shrimp NIC only, not to the %s NIC",
                     rc.shrimpNicFlag, nic::nicKindName(rc.cluster.nicKind));
        return false;
    }
    impliedDefaults(rc);
    return true;
}

std::string
knobHelp()
{
    static constexpr const char *kHeadings[] = {
        "workload options:",
        "what-if knobs (Sec 4 + the modern design point):",
        "fault injection (deterministic; any of these enables the\n"
        "link-level retransmission protocol in the NICs):",
        "observability:",
        "host execution:",
        "bench harness (environment only):",
    };
    std::string out =
        "A variable shown under a flag sets the same knob (set means\n"
        "non-empty). A flag beats the environment, which beats the\n"
        "default.\n";
    int section = -1;
    for (const Knob &k : kKnobs) {
        if (int(k.section) != section) {
            section = int(k.section);
            out += strfmt("\n%s\n", kHeadings[section]);
        }
        // "--flag ARG", or "SHRIMP_X=VALUE" for a variable alone.
        std::string head = k.flag ? k.flag : std::string(k.env) + "=";
        if (k.arg) {
            if (k.flag)
                head += ' ';
            head += k.arg;
        }
        std::string help = k.help;
        if (k.flag && k.env)
            help += strfmt("\n(%s)", k.env);
        // First help line beside the flag, the rest under it.
        for (std::size_t pos = 0; pos <= help.size();) {
            std::size_t nl = std::min(help.find('\n', pos), help.size());
            out += strfmt("  %-25s %s\n", pos ? "" : head.c_str(),
                          help.substr(pos, nl - pos).c_str());
            pos = nl + 1;
        }
    }
    return out;
}

RunConfig
envRunConfig()
{
    RunConfig rc;
    std::string err;
    if (!applyEnv(rc, err))
        fatal("%s", err.c_str());
    return rc;
}

void
activate(const RunConfig &rc)
{
    setLogLevel(rc.logLevel);
    if ((rc.causalFile.empty() && rc.traceFile.empty()) || causal::enabled())
        return;
    causal::open(rc.causalFile, rc.traceFile);
    // A program that opens the recorder here may never close it: its
    // files would then stay empty.
    static bool registered = false;
    if (!registered) {
        registered = true;
        std::atexit([] { causal::close(); });
    }
}

RunConfig
startFromEnv()
{
    RunConfig rc = envRunConfig();
    activate(rc);
    return rc;
}

} // namespace shrimp::core
