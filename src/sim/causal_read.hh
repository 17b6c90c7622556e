/**
 * @file
 * Reader side of the causal trace log (sim/causal.hh): loads the
 * JSONL span file, checks the span-DAG invariants, and reconstructs
 * per-operation critical paths. Shared by tools/shrimp_analyze
 * (--critical-path) and the causal-tracing tests.
 */

#ifndef SHRIMP_SIM_CAUSAL_READ_HH
#define SHRIMP_SIM_CAUSAL_READ_HH

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace shrimp::causal_read
{

/** One parsed span line. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 == trace root
    std::uint64_t trace = 0;  //!< root span id of the trace
    int node = -1;
    std::string_view name; //!< into the owning Log's name table
    std::uint64_t startPs = 0;
    std::uint64_t endPs = 0;

    std::uint64_t durationPs() const { return endPs - startPs; }
};

/**
 * A loaded log plus its lookup indices. Spans are ordered by id (the
 * writer's order); their names point into the log's own name table,
 * so a Log moves but never copies.
 */
struct Log
{
    std::vector<Span> spans;

    Log() = default;
    Log(Log &&) = default;
    Log &operator=(Log &&) = default;
    Log(const Log &) = delete;
    Log &operator=(const Log &) = delete;

    /** Span by id (binary search); nullptr when absent. */
    const Span *byId(std::uint64_t id) const;

    /** The parent of @p s (a span of this log); nullptr for a root
     *  or when the parent is not in the log. */
    const Span *parentOf(const Span &s) const;

    /** Indices (into spans) of the children of @p id. */
    std::span<const std::size_t> childrenOf(std::uint64_t id) const;

    /**
     * Sort spans by id (stably, so duplicates keep file order) if
     * they are not already, and rebuild the parent and children
     * indices. Call after mutating spans.
     */
    void reindex();

  private:
    friend bool load(const std::string &, Log &, std::string *);

    /** The stable copy of @p name in this log's name table. */
    std::string_view intern(std::string_view name);

    /** Index of @p id in spans (spans.size() when absent), searched
     *  from @p hint downwards first. */
    std::size_t indexOf(std::uint64_t id, std::size_t hint) const;

    /** Distinct span names. A deque never moves its elements, so
     *  the views in spans stay valid as names are added. */
    std::deque<std::string> names;
    std::unordered_set<std::string_view> nameSet; //!< views of names
    /** Index of spans[i]'s parent; spans.size() for a root or when
     *  the parent is not in the log. */
    std::vector<std::size_t> parentIdx;
    /** Children of spans[i]: childIdx[childOff[i] .. childOff[i+1]). */
    std::vector<std::size_t> childOff;
    std::vector<std::size_t> childIdx;
};

/**
 * Load @p path: a header line `{"causal_schema":1}`, then one span
 * per line. Each line must be one flat JSON object whose values are
 * strings (without escapes) or integers, keys in any order; unknown
 * keys are skipped.
 * id, parent, trace, start_ps and end_ps are read as exact unsigned
 * 64-bit integers, node as a signed int. The file is streamed in
 * fixed-size chunks. @return success; on failure @p err (if non-null)
 * explains as `path:line: reason`.
 */
bool load(const std::string &path, Log &out, std::string *err);

/**
 * Check the span-DAG invariants: ids unique; every non-zero parent
 * exists; trace ids are consistent (a root's trace is its own id, a
 * child's trace is its parent's); and a child never starts before its
 * parent (asynchronous packets may *end* after the posting span, so
 * full interval nesting is deliberately not required).
 */
bool validate(const Log &log, std::string *err);

/** Time attributed to one span name along a critical path. */
struct Attribution
{
    std::string name;
    std::uint64_t ps = 0;
    std::uint64_t segments = 0; //!< covering segments merged in
};

/** A per-layer critical-path breakdown of one operation. */
struct CriticalPath
{
    std::uint64_t rootId = 0;
    std::string rootName;
    std::uint64_t startPs = 0;
    std::uint64_t endPs = 0;
    std::uint64_t totalPs = 0;
    /** Partition of [startPs, endPs]: ps values sum to totalPs.
     *  Sorted by ps, largest first. */
    std::vector<Attribution> stages;
};

/**
 * Reconstruct the critical path of the operation rooted at @p root_id:
 * every instant of [root.start, root.end] is attributed to the
 * *deepest* span of the root's subtree covering it (the most specific
 * ongoing work), and the resulting segments are summed per span name.
 * The attribution is an exact partition of the root interval.
 */
bool criticalPath(const Log &log, std::uint64_t root_id,
                  CriticalPath &out, std::string *err);

/**
 * Pick a default root: the longest span whose name contains
 * @p name_substr (every span qualifies when the filter is empty and
 * only trace roots are considered). @return nullptr when none match.
 */
const Span *findRoot(const Log &log, const std::string &name_substr);

/** Count/mean of one span name over the whole log. */
struct NameStat
{
    std::string name;
    std::uint64_t count = 0;
    double meanPs = 0.0;
};

/**
 * Per-name duration statistics for every "pkt.*" span in the log —
 * the causal-log mirror of the lifecycle latency histograms, for
 * cross-checking stage means.
 */
std::vector<NameStat> packetStageStats(const Log &log);

} // namespace shrimp::causal_read

#endif // SHRIMP_SIM_CAUSAL_READ_HH
