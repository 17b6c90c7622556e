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
#include <unordered_map>
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
     * Configure the entry corresponding to local physical page
     * @p local for automatic update (the 1:1 physical-page binding).
     */
    void
    bindAu(node::Frame local, NodeId dst_node, node::Frame dst_frame,
           bool combining, bool interrupt_request)
    {
        auBindings[local] = OptEntry{dst_node, dst_frame, true,
                                     combining, interrupt_request};
    }

    /** Disable automatic update on local page @p local. */
    void unbindAu(node::Frame local) { auBindings.erase(local); }

    /**
     * @return the AU binding for local page @p local, or nullptr when
     * writes to the page are snooped but ignored.
     */
    const OptEntry *
    auBinding(node::Frame local) const
    {
        auto it = auBindings.find(local);
        return it == auBindings.end() ? nullptr : &it->second;
    }

    /** Number of live AU bindings. */
    std::size_t auBindingCount() const { return auBindings.size(); }

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

    std::vector<ProxyRun> runs;
    OptIndex nextIndex = 0;
    std::unordered_map<node::Frame, OptEntry> auBindings;
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
