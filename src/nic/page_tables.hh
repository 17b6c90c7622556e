/**
 * @file
 * The network interface's outgoing and incoming page tables.
 *
 * The OPT translates local sources to remote physical pages: imported
 * proxy pages get explicitly allocated entries (used by deliberate
 * update), and automatic update uses the one-to-one correspondence
 * between local physical pages and OPT entries (Sec 2.3).
 *
 * The IPT holds per-destination-page receive state, most importantly
 * the receiver-controlled interrupt-enable bit used by notifications.
 */

#ifndef SHRIMP_NIC_PAGE_TABLES_HH
#define SHRIMP_NIC_PAGE_TABLES_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "node/memory.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace shrimp::nic
{

/** Index of an explicitly allocated OPT entry (proxy page). */
using OptIndex = std::uint32_t;

/** An invalid OPT index. */
inline constexpr OptIndex kInvalidOpt = ~OptIndex(0);

/**
 * One outgoing mapping: where writes/transfers through this entry go.
 */
struct OptEntry
{
    NodeId dstNode = kInvalidNode;
    node::Frame dstFrame = node::kInvalidFrame;
    bool auEnabled = false;        //!< automatic update on this page
    bool combining = false;        //!< AU combining enabled
    bool interruptRequest = false; //!< AU packets request an interrupt
    bool valid = true;             //!< cleared when the import is torn down
};

/**
 * Outgoing page table.
 *
 * Each import allocates consecutive proxy indices that map to
 * consecutive destination frames on one node, and indices are never
 * reused. The host therefore stores one run per import rather than
 * one entry per page; the simulated NIC still sees a per-page table.
 * Automatic-update bindings are kept the same way: one run per bind
 * of consecutive local pages to consecutive remote frames.
 */
class OutgoingPageTable
{
  public:
    /**
     * Allocate @p pages entries for an imported proxy buffer. Page i
     * of the import gets index first + i and maps to @p dst_frame + i
     * on @p dst_node.
     * @return first, the index of the import's first page.
     */
    OptIndex
    allocate(NodeId dst_node, node::Frame dst_frame, std::size_t pages = 1)
    {
        if (pages == 0 || pages >= std::size_t(kInvalidOpt - nextIndex))
            panic("OPT allocate: %zu pages do not fit", pages);
        OptIndex first = nextIndex;
        runs.push_back(ProxyRun{first, dst_node, dst_frame, true});
        nextIndex += OptIndex(pages);
        return first;
    }

    /**
     * Look up a proxy entry; transfers through dead entries fault.
     * Returned by value: the table may grow while a sender waits.
     */
    OptEntry
    proxy(OptIndex idx) const
    {
        if (idx >= nextIndex)
            panic("OPT proxy index %u out of range", idx);
        const ProxyRun &run = runs[runOf(idx)];
        if (!run.valid)
            fatal("OPT proxy entry %u is stale (unimported or "
                  "unexported buffer)", idx);
        return OptEntry{run.dstNode, run.dstFrame + (idx - run.first)};
    }

    /**
     * Invalidate the import that owns entry @p idx, all its pages at
     * once, when the import (or the underlying export) is torn down.
     * Indices are never reused, so stale sends hit the dead entry
     * instead of someone else's memory.
     */
    void
    invalidate(OptIndex idx)
    {
        if (idx >= nextIndex)
            panic("OPT invalidate: index %u out of range", idx);
        runs[runOf(idx)].valid = false;
    }

    /**
     * Configure the entries of local physical pages [@p local,
     * @p local + @p pages) for automatic update (the 1:1
     * physical-page binding): page i maps to @p dst_frame + i on
     * @p dst_node. Replaces any binding the range overlaps.
     */
    void
    bindAu(node::Frame local, std::size_t pages, NodeId dst_node,
           node::Frame dst_frame, bool combining, bool interrupt_request)
    {
        if (pages == 0)
            return;
        unbindAu(local, pages);
        auRuns.insert(auRuns.begin() + auRunsBefore(local),
                      AuRun{local, node::Frame(pages), dst_node,
                            dst_frame, combining, interrupt_request});
        auPages += pages;
        auDirStale = true;
    }

    /**
     * Disable automatic update on local pages [@p local,
     * @p local + @p pages); runs that straddle either end are split.
     */
    void
    unbindAu(node::Frame local, std::size_t pages)
    {
        if (pages == 0)
            return;
        if (pages > std::size_t(node::kInvalidFrame - local))
            panic("OPT unbindAu: %zu pages from frame %u overflow",
                  pages, local);
        const node::Frame end = local + node::Frame(pages);
        // Runs are sorted and disjoint, so [i, j) are the ones that
        // overlap [local, end).
        auto ends_before = [local](const AuRun &r) {
            return r.first + r.pages <= local;
        };
        std::size_t i = std::size_t(
            std::partition_point(auRuns.begin(), auRuns.end(),
                                 ends_before) -
            auRuns.begin());
        std::size_t j = auRunsBefore(end);
        if (i >= j)
            return;

        AuRun pieces[2];
        int kept = 0;
        AuRun head = auRuns[i];
        if (head.first < local) {
            head.pages = local - head.first;
            pieces[kept++] = head;
        }
        AuRun tail = auRuns[j - 1];
        if (tail.first + tail.pages > end) {
            tail.pages = tail.first + tail.pages - end;
            tail.dstFrame += end - tail.first;
            tail.first = end;
            pieces[kept++] = tail;
        }
        for (std::size_t k = i; k < j; ++k)
            auPages -= auRuns[k].pages;
        for (int k = 0; k < kept; ++k)
            auPages += pieces[k].pages;
        auRuns.erase(auRuns.begin() + i, auRuns.begin() + j);
        auRuns.insert(auRuns.begin() + i, pieces, pieces + kept);
        auDirStale = true;
    }

    /**
     * @return the AU binding of local page @p local, or nothing when
     * writes to the page are snooped but ignored.
     */
    std::optional<OptEntry>
    auBinding(node::Frame local) const
    {
        if (auDirStale)
            rebuildAuDir();
        if (auRuns.empty() || local < auDirBase)
            return std::nullopt;
        // Runs [lo, hi) start in local's bucket; those before lo start
        // at or below it, those from hi on above it.
        std::size_t b = (local - auDirBase) >> auDirShift;
        std::size_t lo = auRuns.size(), hi = lo;
        if (b + 1 < auDir.size()) {
            lo = auDir[b];
            hi = auDir[b + 1];
        }
        std::size_t k = std::size_t(
            std::partition_point(
                auRuns.begin() + lo, auRuns.begin() + hi,
                [local](const AuRun &r) { return r.first <= local; }) -
            auRuns.begin());
        if (k == 0)
            return std::nullopt;
        const AuRun &run = auRuns[k - 1];
        if (local - run.first >= run.pages)
            return std::nullopt;
        return OptEntry{run.dstNode, run.dstFrame + (local - run.first),
                        true, run.combining, run.interruptRequest};
    }

    /** Number of pages with a live AU binding. */
    std::size_t auBindingCount() const { return auPages; }

    /** Number of allocated proxy entries (pages, not imports). */
    std::size_t proxyCount() const { return nextIndex; }

  private:
    /** The entries of one import: first, first + 1, ... */
    struct ProxyRun
    {
        OptIndex first;
        NodeId dstNode;
        node::Frame dstFrame; //!< destination of entry first
        bool valid;
    };

    /** Position in runs of the run holding @p idx (< nextIndex). */
    std::size_t
    runOf(OptIndex idx) const
    {
        // Runs are appended in index order and leave no gaps.
        auto it = std::upper_bound(
            runs.begin(), runs.end(), idx,
            [](OptIndex i, const ProxyRun &r) { return i < r.first; });
        return std::size_t(it - runs.begin()) - 1;
    }

    /** AU bindings of local pages first, first + 1, ... */
    struct AuRun
    {
        node::Frame first;
        node::Frame pages;
        NodeId dstNode;
        node::Frame dstFrame; //!< destination of page first
        bool combining;
        bool interruptRequest;
    };

    /** Number of AU runs that start below @p frame. */
    std::size_t
    auRunsBefore(node::Frame frame) const
    {
        return std::size_t(
            std::partition_point(
                auRuns.begin(), auRuns.end(),
                [frame](const AuRun &r) { return r.first < frame; }) -
            auRuns.begin());
    }

    /**
     * Rebuild the lookup directory: buckets of 2^auDirShift pages
     * from the first run's start, at most about two per run, and
     * entry b is the number of runs that start below bucket b.
     */
    void
    rebuildAuDir() const
    {
        auDirStale = false;
        auDir.clear();
        if (auRuns.empty())
            return;
        auDirBase = auRuns.front().first;
        const std::uint64_t span = auRuns.back().first - auDirBase + 1;
        auDirShift = 0;
        while ((span >> auDirShift) > 2 * auRuns.size())
            ++auDirShift;
        const std::size_t buckets = ((span - 1) >> auDirShift) + 1;
        auDir.resize(buckets + 1);
        std::size_t k = 0;
        for (std::size_t b = 0; b <= buckets; ++b) {
            std::uint64_t start =
                auDirBase + (std::uint64_t(b) << auDirShift);
            while (k < auRuns.size() && auRuns[k].first < start)
                ++k;
            auDir[b] = std::uint32_t(k);
        }
    }

    std::vector<ProxyRun> runs;
    OptIndex nextIndex = 0;

    /** Sorted by first local page; runs never overlap. */
    std::vector<AuRun> auRuns;
    std::size_t auPages = 0;

    // The snoop check's directory over auRuns, rebuilt by the first
    // lookup after a bind or unbind (set-up binds in bulk, then
    // stores look up).
    mutable std::vector<std::uint32_t> auDir;
    mutable node::Frame auDirBase = 0;
    mutable unsigned auDirShift = 0;
    mutable bool auDirStale = false;
};

/**
 * Incoming page table.
 */
class IncomingPageTable
{
  public:
    /** Set the receiver-side interrupt-enable bit for @p frame. */
    void
    setInterruptEnable(node::Frame frame, bool enable)
    {
        if (enable)
            interruptEnabled.insert(frame);
        else
            interruptEnabled.erase(frame);
    }

    /** @return the receiver-side interrupt-enable bit for @p frame. */
    bool
    interruptEnable(node::Frame frame) const
    {
        return interruptEnabled.count(frame) > 0;
    }

  private:
    std::unordered_set<node::Frame> interruptEnabled;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_PAGE_TABLES_HH
