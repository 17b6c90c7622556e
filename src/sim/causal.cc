#include "sim/causal.hh"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sim/trace_json.hh"

namespace shrimp::causal
{

namespace detail
{
bool g_enabled = false;
}

namespace
{

/** One buffered span record; serialized (sorted by id) at close(). */
struct Record
{
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t trace;
    std::int32_t node;
    const char *name; //!< string literals only (never freed)
    Tick start;
    Tick end;
};

std::FILE *out = nullptr;

/**
 * The record buffer and the per-node id counters (index node + 1,
 * grown on first use). One thread records at a time: the sweep runner
 * runs a recording sweep on one worker (bench/sweep.cc).
 */
std::vector<Record> records;
std::vector<std::uint64_t> nodeCounter;

/** Node-id ceiling for span ids: the mesh's (mesh::kMaxMeshNodes). */
constexpr std::size_t kMaxNodes = 64 * 1024;

/** Per-node Chrome-trace track ids. */
std::vector<int> chromeTracks;

/**
 * The thread's event-context slot: the carried context of the packet
 * whose delivery/notification event is currently executing. Read when
 * no Process is running on this thread's stream.
 */
thread_local CauseCtx tls_event_ctx;

/** Simulated now, or 0 outside a live simulation. */
Tick
nowOrZero()
{
    Simulation *s = Simulation::currentOrNull();
    return s ? s->now() : 0;
}

/**
 * The mutable context slot pair of this thread's execution stream:
 * the running Process's slot if a fiber is executing, else the
 * thread-local event slot.
 */
void
currentSlots(std::uint64_t *&trace, std::uint64_t *&span)
{
    if (Simulation *s = Simulation::currentOrNull()) {
        if (Process *p = s->current()) {
            trace = &p->causeTrace;
            span = &p->causeSpan;
            return;
        }
    }
    trace = &tls_event_ctx.trace;
    span = &tls_event_ctx.span;
}

/**
 * Buffered log output: text and integers are copied into a reused
 * buffer (integers via std::to_chars), which is written out with one
 * fwrite whenever it fills.
 */
class LineWriter
{
  public:
    explicit LineWriter(std::FILE *f) : file(f) {}

    void
    put(std::string_view s)
    {
        if (used + s.size() > kBytes) {
            flush();
            if (s.size() > kBytes) {
                std::fwrite(s.data(), 1, s.size(), file);
                return;
            }
        }
        std::memcpy(buf.get() + used, s.data(), s.size());
        used += s.size();
    }

    template <std::integral Int>
    void
    put(Int v)
    {
        if (used + kMaxDigits > kBytes)
            flush();
        char *at = buf.get() + used;
        used += std::size_t(std::to_chars(at, at + kMaxDigits, v).ptr - at);
    }

    void
    flush()
    {
        std::fwrite(buf.get(), 1, used, file);
        used = 0;
    }

  private:
    static constexpr std::size_t kBytes = 64 * 1024;
    static constexpr std::size_t kMaxDigits = 20; //!< of a u64
    std::FILE *file;
    std::unique_ptr<char[]> buf{new char[kBytes]};
    std::size_t used = 0;
};

} // anonymous namespace

void
open(const std::string &path)
{
    close();
    out = std::fopen(path.c_str(), "w");
    if (!out)
        fatal("causal: cannot open '%s' for writing", path.c_str());
    records.clear();
    nodeCounter.clear();
    detail::g_enabled = true;
}

void
close()
{
    if (!out)
        return;
    detail::g_enabled = false;

    // Ids are minted in deterministic per-node order; sorting by id
    // makes the file independent of cross-node interleaving.
    std::sort(records.begin(), records.end(),
              [](const Record &a, const Record &b) {
                  return a.id < b.id;
              });
    LineWriter w{out};
    w.put("{\"causal_schema\":1}\n");
    for (const Record &r : records) {
        w.put("{\"id\":");
        w.put(r.id);
        w.put(",\"parent\":");
        w.put(r.parent);
        w.put(",\"trace\":");
        w.put(r.trace);
        w.put(",\"node\":");
        w.put(r.node);
        w.put(",\"name\":\"");
        w.put(std::string_view(r.name));
        w.put("\",\"start_ps\":");
        w.put(r.start);
        w.put(",\"end_ps\":");
        w.put(r.end);
        w.put("}\n");
    }
    w.flush();
    records.clear();
    records.shrink_to_fit();
    std::fclose(out);
    out = nullptr;
}

CauseCtx
current()
{
    if (!enabled())
        return {};
    std::uint64_t *trace, *span;
    currentSlots(trace, span);
    return {*trace, *span};
}

std::uint64_t
mintId(int node)
{
    std::size_t idx = std::size_t(node + 1);
    if (idx >= nodeCounter.size()) {
        if (idx > kMaxNodes)
            fatal("causal: node %d out of range", node);
        nodeCounter.resize(idx + 1, 0);
    }
    return (std::uint64_t(node + 1) << 32) | ++nodeCounter[idx];
}

void
emitSpan(std::uint64_t id, const CauseCtx &parent, int node,
         const char *name, Tick start, Tick end)
{
    if (!enabled())
        return;
    if (end < start)
        end = start;
    Record r;
    r.id = id;
    r.parent = parent.span;
    r.trace = parent.valid() ? parent.trace : id;
    r.node = node;
    r.name = name;
    r.start = start;
    r.end = end;
    records.push_back(r);

    // Mirror the span (with its causal links as args) into the Chrome
    // trace when both recorders are on, one track per node.
    if (trace_json::enabled()) {
        std::size_t idx = std::size_t(node + 1);
        if (chromeTracks.size() <= idx)
            chromeTracks.resize(idx + 1, -1);
        if (chromeTracks[idx] < 0)
            chromeTracks[idx] =
                trace_json::track(strfmt("causal.node%d", node));
        trace_json::completeEvent(
            chromeTracks[idx], name, start, end,
            strfmt("{\"span\":%llu,\"parent\":%llu,\"trace\":%llu}",
                   (unsigned long long)r.id,
                   (unsigned long long)r.parent,
                   (unsigned long long)r.trace));
    }
}

void
emitRetx(const CauseCtx &cause, int src_node, Tick when)
{
    if (!enabled())
        return;
    emitSpan(mintId(src_node), cause, src_node, "nic.retx", when, when);
}

void
OpSpan::begin(int node, const char *name)
{
    live = true;
    _name = name;
    _node = node;
    _start = nowOrZero();
    _id = mintId(node);

    currentSlots(slotTrace, slotSpan);
    saved = {*slotTrace, *slotSpan};
    *slotTrace = saved.span ? saved.trace : _id;
    *slotSpan = _id;
}

void
OpSpan::finish()
{
    // The recorder may have closed mid-span; restore the slots
    // regardless so nesting stays balanced.
    *slotTrace = saved.trace;
    *slotSpan = saved.span;
    emitSpan(_id, saved, _node, _name, _start, nowOrZero());
}

void
EventCtxScope::install(const CauseCtx &ctx)
{
    live = true;
    currentSlots(slotTrace, slotSpan);
    saved = {*slotTrace, *slotSpan};
    *slotTrace = ctx.trace;
    *slotSpan = ctx.span;
}

void
EventCtxScope::restore()
{
    *slotTrace = saved.trace;
    *slotSpan = saved.span;
}

} // namespace shrimp::causal
