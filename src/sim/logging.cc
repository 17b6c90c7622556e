#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "sim/simulation.hh"

namespace shrimp
{

namespace
{

// Entry points apply SHRIMP_LOG through setLogLevel
// (core/run_config.hh).
LogLevel g_level = LogLevel::Info;

} // anonymous namespace

LogLevel
logLevel()
{
    return g_level;
}

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

std::string
vstrfmt(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap2);
    va_end(ap2);
    if (n < 0)
        return "<format error>";
    std::string out(size_t(n), '\0');
    std::vsnprintf(out.data(), size_t(n) + 1, fmt, ap);
    return out;
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vstrfmt(fmt, ap);
    va_end(ap);
    return out;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (g_level < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (g_level < LogLevel::Info)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
debug(const char *fmt, ...)
{
    if (g_level < LogLevel::Debug)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

namespace trace
{

namespace
{

std::set<std::string> enabled_components;
bool all_enabled = false;

} // anonymous namespace

void
enable(const std::string &component)
{
    enabled_components.insert(component);
}

void
enableAll()
{
    all_enabled = true;
}

void
disableAll()
{
    all_enabled = false;
    enabled_components.clear();
}

bool
enabled(const std::string &component)
{
    return all_enabled || enabled_components.count(component) > 0;
}

void
printf(const char *component, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);

    Simulation *sim = Simulation::currentOrNull();
    if (sim) {
        std::fprintf(stderr, "%12.3f us: %s: %s\n",
                     toMicroseconds(sim->now()), component, msg.c_str());
    } else {
        std::fprintf(stderr, "      --    : %s: %s\n",
                     component, msg.c_str());
    }
}

} // namespace trace

} // namespace shrimp
