/**
 * @file
 * The knob table: every SHRIMP_* environment variable and every
 * shrimp_run flag, in one table, read in one place with one
 * precedence rule:
 *
 *     flag (or a value the program sets itself) > environment > default
 *
 * Entry points (shrimp_run, the bench harness, the examples) start
 * from a default RunConfig, apply the environment (applyEnv), then
 * apply their own flags or fields. Library code takes its config as
 * given: this module is the only code under src/ that reads the
 * environment. Each row names its variable, its flag, the field it
 * sets, a strict parser with a range, and its help text; shrimp_run's
 * flag parsing and --help text come from the same rows.
 */

#ifndef SHRIMP_CORE_RUN_CONFIG_HH
#define SHRIMP_CORE_RUN_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "sim/logging.hh"

namespace shrimp::core
{

/** Everything one run is configured with. */
struct RunConfig
{
    /** The simulated machine and its what-if knobs. */
    ClusterConfig cluster;

    // Recorders and sinks; an empty path is off.
    std::string statsJson;   //!< RunReport file (shrimp_run)
    std::string traceFile;   //!< Chrome trace_event timeline
    std::string causalFile;  //!< causal span log (JSONL)
    std::string metricsFile; //!< flight-recorder time series
    std::string reportJsonl; //!< bench RunReport stream (one per run)
    bool reportHost = false; //!< host timing in reports
    LogLevel logLevel = LogLevel::Info;

    // Bench harness.
    int jobs = 1;           //!< sweep worker threads, in [1, 64]
    bool fullScale = false; //!< paper problem sizes

    // shrimp_run's workload (flags only).
    std::string app;
    int procs = 16;
    int protocol = -1;      //!< svm::Protocol; -1 = by NIC
    std::optional<bool> au; //!< --au / --du; unset = app default
    std::size_t keys = 262144;
    int grid = 130;
    int bodies = 4096;
    int steps = -1;
    std::uint64_t seed = 0;
    bool listApps = false;
    /** The last SHRIMP-NIC-only flag given (--fifo, ...), or null. */
    const char *shrimpNicFlag = nullptr;
};

/** One value being parsed, with its strict parsers (run_config.cc). */
struct KnobArg;

/** The help sections, in the order --help prints them. */
enum class KnobSection
{
    Workload,
    WhatIf,
    Faults,
    Observability,
    Host,
    Harness,
};

/** One row of the knob table. */
struct Knob
{
    const char *flag;   //!< shrimp_run flag, or null
    const char *env;    //!< SHRIMP_* variable, or null
    const char *arg;    //!< flag argument placeholder; null = switch
    KnobSection section;
    const char *help;   //!< lines separated by '\n'
    /** Parse @p a into @p rc; false (with a.err set) on bad input. */
    bool (*set)(RunConfig &rc, const KnobArg &a);
    /**
     * For a list knob: drop the environment's entries when the flag
     * first appears, so the command line replaces them. Null for a
     * scalar, whose flag overwrites the value anyway.
     */
    void (*clear)(RunConfig &rc) = nullptr;
};

/** The knob table. */
const std::vector<Knob> &knobs();

/**
 * Apply every SHRIMP_* variable that is set (non-empty) to @p rc.
 * @return false, with a message naming the variable in @p err, on a
 * value its parser rejects.
 */
bool applyEnv(RunConfig &rc, std::string &err);

/**
 * Apply shrimp_run's command line (argv[1..]) to @p rc, after the
 * environment.
 * @return false, with a message naming the flag in @p err, on an
 * unknown flag, a missing argument, a value its parser rejects, or a
 * SHRIMP-NIC-only flag when the NIC (flag or environment) is another.
 */
bool applyFlags(RunConfig &rc, int argc, char **argv, std::string &err);

/** shrimp_run's option help, generated from the table. */
std::string knobHelp();

/**
 * Defaults with the environment applied, for programs without flags
 * of their own (benches, examples). A bad value is fatal.
 */
RunConfig envRunConfig();

/**
 * Put @p rc's process-wide settings into effect: the log level, and
 * the span recorder writing the causal log and/or Chrome trace it
 * names (opened unless already open, and closed at exit).
 */
void activate(const RunConfig &rc);

/** envRunConfig(), activated: the whole set-up of an example. */
RunConfig startFromEnv();

} // namespace shrimp::core

#endif // SHRIMP_CORE_RUN_CONFIG_HH
