#include "sim/trace_json.hh"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace shrimp::trace_json
{

namespace detail
{
bool g_enabled = false;
}

namespace
{

/**
 * Track names survive close()/open() cycles so cached track ids at
 * instrumentation sites never go stale. A trace names a track when it
 * first uses it, so tracks registered earlier in the process stay out
 * of a trace that never uses them.
 */
struct TrackRegistry
{
    std::vector<std::string> names;
    std::map<std::string, int> byName;
    std::vector<bool> namedInTrace; //!< per id, for the open trace
};

TrackRegistry &
tracks()
{
    static TrackRegistry r;
    return r;
}

std::FILE *out = nullptr;
bool firstEvent = true;

/** Simulated now, or 0 outside a live simulation. */
Tick
nowOrZero()
{
    Simulation *s = Simulation::currentOrNull();
    return s ? s->now() : 0;
}

/**
 * Print @p t as a microsecond value with full picosecond precision
 * ("123.456789"), the unit the trace_event format expects.
 */
void
printUs(std::string &into, Tick t)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  (unsigned long long)(t / kPsPerUs),
                  (unsigned long long)(t % kPsPerUs));
    into += buf;
}

void
emitLine(const std::string &body)
{
    if (!out)
        return;
    if (!firstEvent)
        std::fputs(",\n", out);
    firstEvent = false;
    std::fputs(body.c_str(), out);
}

void
emitThreadName(int tid, const std::string &name)
{
    emitLine(strfmt("{\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                    "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                    tid, JsonWriter::escaped(name).c_str()));
}

/** Name @p track in the open trace before its first event there. */
void
useTrack(int track)
{
    auto &reg = tracks();
    if (reg.namedInTrace.size() <= std::size_t(track))
        reg.namedInTrace.resize(reg.names.size(), false);
    if (!reg.namedInTrace[track]) {
        reg.namedInTrace[track] = true;
        emitThreadName(track, reg.names[track]);
    }
}

void
appendArgs(std::string &line, const std::string &args_json)
{
    if (!args_json.empty()) {
        line += ",\"args\":";
        line += args_json;
    }
    line += '}';
}

} // anonymous namespace

void
open(const std::string &path)
{
    close();
    out = std::fopen(path.c_str(), "w");
    if (!out)
        fatal("trace_json: cannot open '%s' for writing", path.c_str());
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
    firstEvent = true;
    detail::g_enabled = true;

    emitLine("{\"ph\":\"M\",\"pid\":0,"
             "\"name\":\"process_name\",\"args\":{\"name\":\"shrimp\"}}");
    tracks().namedInTrace.clear();
}

void
close()
{
    if (!out)
        return;
    std::fputs("\n]}\n", out);
    std::fclose(out);
    out = nullptr;
    detail::g_enabled = false;
}

int
track(const std::string &name)
{
    auto &reg = tracks();
    auto it = reg.byName.find(name);
    if (it != reg.byName.end())
        return it->second;
    int id = int(reg.names.size());
    reg.names.push_back(name);
    reg.byName.emplace(name, id);
    return id;
}

void
completeEvent(int track, const char *name, Tick start, Tick end,
              const std::string &args_json)
{
    if (!detail::g_enabled)
        return;
    if (end < start)
        end = start;
    useTrack(track);
    std::string line =
        strfmt("{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":", track);
    printUs(line, start);
    line += ",\"dur\":";
    printUs(line, end - start);
    line += strfmt(",\"name\":\"%s\"",
                   JsonWriter::escaped(name).c_str());
    appendArgs(line, args_json);
    emitLine(line);
}

void
instantEvent(int track, const char *name, const std::string &args_json)
{
    if (!detail::g_enabled)
        return;
    useTrack(track);
    std::string line =
        strfmt("{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":",
               track);
    printUs(line, nowOrZero());
    line += strfmt(",\"name\":\"%s\"",
                   JsonWriter::escaped(name).c_str());
    appendArgs(line, args_json);
    emitLine(line);
}

void
counterEvent(const char *name, double value)
{
    if (!detail::g_enabled)
        return;
    std::string line = "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":";
    printUs(line, nowOrZero());
    line += strfmt(",\"name\":\"%s\",\"args\":{\"value\":%.0f}}",
                   JsonWriter::escaped(name).c_str(), value);
    emitLine(line);
}

Tick
Span::nowTick()
{
    return nowOrZero();
}

} // namespace shrimp::trace_json
