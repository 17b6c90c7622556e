/**
 * @file
 * Causal tracing: a Dapper-style trace context (trace id + parent
 * span id) minted at each app-level operation and carried through
 * every layer a message crosses — msg domains, sockets, VMMC,
 * collectives, SVM, the NICs, and the mesh packets themselves — so an
 * app-level stall can be attributed to the exact chain of sends,
 * retransmits, and notifications behind it.
 *
 * The recorder is process-global and off by default; every
 * instrumentation site guards on enabled() (a single bool load), and
 * the context slots piggyback on state the packet pipeline already
 * copies, so disabled tracing is zero-cost and leaves all outputs
 * byte-identical.
 *
 * Output is a compact JSONL causal log: a header line
 * `{"causal_schema":1}` followed by one parent-linked span per line,
 *
 *   {"id":N,"parent":N,"trace":N,"node":N,"name":"nx.csend",
 *    "start_ps":N,"end_ps":N}
 *
 * with integer picosecond timestamps (exact, no rounding). Span ids
 * are minted from per-node counters (`(node+1) << 32 | counter`), so
 * ids — and therefore the whole sorted log — are identical between
 * repeated runs of a bit-identical simulation. The recorder is not
 * thread-safe: the sweep runner runs a recording sweep on one worker.
 * `parent == 0` marks a trace root; `trace` is the root span's id.
 *
 * Enable with causal::open(path) (shrimp_run --causal FILE, or the
 * SHRIMP_CAUSAL environment variable) and finish with close().
 * tools/shrimp_analyze --critical-path consumes the log.
 */

#ifndef SHRIMP_SIM_CAUSAL_HH
#define SHRIMP_SIM_CAUSAL_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace shrimp::causal
{

namespace detail
{
extern bool g_enabled;
}

/** @return whether a causal log is open (fast path for call sites). */
inline bool
enabled()
{
    return detail::g_enabled;
}

/**
 * The propagated context: the trace a span belongs to and the span
 * that caused it. Zero means "no context" — a packet sent outside any
 * traced operation becomes the root of its own trace. The struct is
 * two plain words so it travels inside packets for free (like
 * mesh::PacketLife, it is observability metadata, not protocol
 * state).
 */
struct CauseCtx
{
    std::uint64_t trace = 0; //!< root span id of the enclosing trace
    std::uint64_t span = 0;  //!< immediate parent span id

    bool valid() const { return span != 0; }
};

/** Open @p path and start recording. Replaces any open log. */
void open(const std::string &path);

/** Sort, flush and close the log. Idempotent. */
void close();

/**
 * Open a log if the SHRIMP_CAUSAL environment variable names a file.
 * Called by Cluster construction; harmless to repeat.
 */
void openFromEnv();

/**
 * The context of the operation executing on this thread's stream: the
 * current Process's slot when a fiber is running, else the thread's
 * event-context slot (set by EventCtxScope inside delivery events).
 * Returns an empty context when tracing is off.
 */
CauseCtx current();

/** Mint a fresh span id on @p node (-1 for no node). */
std::uint64_t mintId(int node);

/**
 * Record one completed span. @p parent may be empty (trace root).
 * Records are buffered and sorted by id at close().
 */
void emitSpan(std::uint64_t id, const CauseCtx &parent, int node,
              const char *name, Tick start, Tick end);

/**
 * Record a delivered packet as a "pkt.total" span parented on the
 * packet's carried context, plus its five lifecycle stage children
 * (pkt.send_overhead .. pkt.delivery) which partition [born, rx_done]
 * exactly — so per-stage means over the log equal the lifecycle
 * histogram means. Called by the NICs' receive paths.
 */
void emitPacket(const CauseCtx &cause, int dst_node, Tick born,
                Tick queued, Tick injected, Tick delivered,
                Tick rx_start, Tick rx_done);

/**
 * Record a retransmission as a zero-length "nic.retx" span parented
 * on the *original* packet's context (go-back-N resends the buffered
 * copy, which still carries it).
 */
void emitRetx(const CauseCtx &cause, int src_node, Tick when);

/**
 * RAII operation span. On construction (when enabled) it captures the
 * enclosing context as parent, mints an id, and installs itself as
 * the current context — in the running Process's slot (which travels
 * with the fiber across suspends) or the thread's event slot — and on
 * destruction restores the saved context and emits the span.
 */
class OpSpan
{
  public:
    OpSpan(int node, const char *name)
    {
        if (enabled())
            begin(node, name);
    }

    ~OpSpan()
    {
        if (live)
            finish();
    }

    OpSpan(const OpSpan &) = delete;
    OpSpan &operator=(const OpSpan &) = delete;

    /** This span's id (0 when tracing is off). */
    std::uint64_t id() const { return _id; }

  private:
    void begin(int node, const char *name);
    void finish();

    bool live = false;
    std::uint64_t _id = 0;
    CauseCtx saved;            //!< context to restore
    std::uint64_t *slotTrace = nullptr; //!< slot we installed into
    std::uint64_t *slotSpan = nullptr;
    const char *_name = nullptr;
    int _node = -1;
    Tick _start = 0;
};

/**
 * RAII event-context scope: installs @p ctx as the current context for
 * the duration of a delivery/notification callback, so sends issued
 * from inside it inherit the causing packet's context. Installs into
 * the running Process's slot when one is executing (the OS
 * notification dispatcher runs handlers on a fiber) or the thread's
 * event slot otherwise. Nests (saves and restores).
 */
class EventCtxScope
{
  public:
    explicit EventCtxScope(const CauseCtx &ctx)
    {
        if (enabled())
            install(ctx);
    }

    ~EventCtxScope()
    {
        if (live)
            restore();
    }

    EventCtxScope(const EventCtxScope &) = delete;
    EventCtxScope &operator=(const EventCtxScope &) = delete;

  private:
    void install(const CauseCtx &ctx);
    void restore();

    bool live = false;
    CauseCtx saved;
    std::uint64_t *slotTrace = nullptr; //!< slot we installed into
    std::uint64_t *slotSpan = nullptr;
};

} // namespace shrimp::causal

#endif // SHRIMP_SIM_CAUSAL_HH
