/**
 * @file
 * Error and status reporting, following the gem5 fatal/panic split.
 *
 * panic()  - a simulator bug: something that must never happen did.
 * fatal()  - a user/configuration error; the simulation cannot continue.
 * warn()   - questionable behaviour that might still work.
 * inform() - plain status output.
 * debug()  - diagnostic detail, off by default.
 *
 * warn/inform/debug are filtered by a process-wide log level, set
 * via setLogLevel() (entry points apply SHRIMP_LOG: "quiet", "warn",
 * "info" (default), "debug", or the matching 0-3).
 * panic/fatal always print — errors are never filtered.
 */

#ifndef SHRIMP_SIM_LOGGING_HH
#define SHRIMP_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace shrimp
{

/** Printf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, va_list ap);

/** Printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Abort with a message; use for internal simulator bugs. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit with a message; use for user/configuration errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Verbosity of warn/inform/debug, in increasing order. */
enum class LogLevel
{
    Quiet = 0, //!< errors only (panic/fatal)
    Warn = 1,  //!< + warn()
    Info = 2,  //!< + inform() — the default
    Debug = 3, //!< + debug()
};

/** The active log level (Info until setLogLevel). */
LogLevel logLevel();

/** Set the log level (entry points apply SHRIMP_LOG through it). */
void setLogLevel(LogLevel level);

/** Report questionable-but-survivable behaviour (level >= Warn). */
void warn(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report normal status (level >= Info). */
void inform(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report diagnostic detail (level >= Debug, i.e. off by default). */
void debug(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Debug tracing.
 *
 * Trace output is off by default; enable components by name via
 * Trace::enable("Nic") or enable all with Trace::enableAll(). The
 * trace line is prefixed with the current simulated time when a
 * simulation is active.
 */
namespace trace
{

/** Enable tracing for one component name. */
void enable(const std::string &component);

/** Enable tracing for every component. */
void enableAll();

/** Disable all tracing. */
void disableAll();

/** @return true if the component's tracing is on. */
bool enabled(const std::string &component);

/** Emit one trace line for @p component. */
void printf(const char *component, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace trace

/** Convenience macro so the argument evaluation is skipped when off. */
#define SHRIMP_TRACE(component, ...)                                   \
    do {                                                               \
        if (::shrimp::trace::enabled(component))                       \
            ::shrimp::trace::printf(component, __VA_ARGS__);           \
    } while (0)

} // namespace shrimp

#endif // SHRIMP_SIM_LOGGING_HH
