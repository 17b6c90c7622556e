/**
 * @file
 * Structured tracing: span/instant/counter events in the Chrome
 * trace_event JSON format, loadable in chrome://tracing and Perfetto.
 *
 * The recorder is process-global and off by default; instrumentation
 * sites guard on enabled() (a single bool load) so disabled tracing is
 * near-zero cost. Events land on named *tracks* — one per simulated
 * process, plus per-node NIC tracks and per-link mesh tracks — and
 * carry simulated time (microsecond ts/dur with picosecond precision),
 * so the trace is deterministic across identical runs.
 *
 * Enable with trace_json::open(path) (shrimp_run --trace FILE, or the
 * SHRIMP_TRACE environment variable) and finish with close().
 */

#ifndef SHRIMP_SIM_TRACE_JSON_HH
#define SHRIMP_SIM_TRACE_JSON_HH

#include <string>

#include "sim/types.hh"

namespace shrimp::trace_json
{

namespace detail
{
extern bool g_enabled;
}

/** @return whether a trace file is open (fast path for call sites). */
inline bool
enabled()
{
    return detail::g_enabled;
}

/**
 * Open @p path and start recording. Replaces any open trace.
 * The file becomes a complete JSON document once close() runs.
 */
void open(const std::string &path);

/** Finish the JSON document and stop recording. Idempotent. */
void close();

/**
 * Get (or create) the track named @p name. Track ids are stable for
 * the lifetime of the process, so call sites may cache them even
 * across close()/open() cycles. A trace names a track (a thread_name
 * record) just before the first event it puts there.
 */
int track(const std::string &name);

/**
 * Emit a completed span [@p start, @p end] on @p track.
 *
 * @param args_json Optional preformatted JSON object ("{...}") for
 *                  the event's args field.
 */
void completeEvent(int track, const char *name, Tick start, Tick end,
                   const std::string &args_json = std::string());

/** Emit an instant event at the current simulated time. */
void instantEvent(int track, const char *name,
                  const std::string &args_json = std::string());

/** Emit a counter sample at the current simulated time. */
void counterEvent(const char *name, double value);

/**
 * RAII span: opens at construction, emits a complete event covering
 * [construction, destruction] in simulated time. A disabled recorder
 * makes both ends a bool check.
 */
class Span
{
  public:
    Span(int track, const char *name)
        : tr(track), _name(name), live(enabled())
    {
        if (live)
            start = nowTick();
    }

    ~Span()
    {
        if (live)
            completeEvent(tr, _name, start, nowTick());
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    static Tick nowTick();

    int tr;
    const char *_name;
    bool live;
    Tick start = 0;
};

} // namespace shrimp::trace_json

#endif // SHRIMP_SIM_TRACE_JSON_HH
