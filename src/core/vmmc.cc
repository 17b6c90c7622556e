#include "core/vmmc.hh"

#include <algorithm>

#include "sim/causal.hh"
#include "sim/logging.hh"

namespace shrimp::core
{

Endpoint::Endpoint(Cluster &cluster, node::Node &n, nic::NicBase &nic)
    : _cluster(cluster), _node(n), _nic(nic),
      stExports(n.simulation().stats(), n.name() + ".vmmc.exports"),
      stUnexports(n.simulation().stats(),
                  n.name() + ".vmmc.unexports"),
      stUnimports(n.simulation().stats(),
                  n.name() + ".vmmc.unimports"),
      stMessages(n.simulation().stats(), n.name() + ".vmmc.messages"),
      stMessageBytes(n.simulation().stats(),
                     n.name() + ".vmmc.message_bytes"),
      stAuBindings(n.simulation().stats(),
                   n.name() + ".vmmc.au_bindings"),
      stNotifications(n.simulation().stats(),
                      n.name() + ".vmmc.notifications")
{
    _nic.setDeliverHook([this](const nic::Delivery &d) { onDeliver(d); });
    // A dead peer (fault mode, fatalOnGiveUp off) wakes every blocked
    // waiter so wait predicates can re-check peer health instead of
    // sleeping forever.
    _nic.setPeerDeadHook([this](NodeId) {
        deliveryWait.wakeAll(_node.simulation());
    });
}

ExportId
Endpoint::exportBuffer(void *base, std::size_t bytes,
                       ExportPermissions permissions)
{
    auto &mem = _node.mem();
    if (!mem.contains(base))
        fatal("exportBuffer: memory must come from the node arena");
    if (mem.offsetOf(base) % node::kPageBytes != 0)
        fatal("exportBuffer: receive buffers must be page-aligned");
    if (bytes == 0)
        fatal("exportBuffer: empty buffer");

    auto rec = std::make_unique<ExportRecord>();
    rec->owner = _node.id();
    rec->id = ExportId(exports.size());
    rec->base = static_cast<char *>(base);
    rec->bytes = bytes;
    rec->baseFrame = mem.frameOf(base);
    rec->pages = (bytes + node::kPageBytes - 1) / node::kPageBytes;
    rec->permissions = std::move(permissions);

    // Pinning the buffer's pages is kernel work.
    _node.cpu().compute(Tick(rec->pages) * _node.params().pagePinCost);
    _node.cpu().sync();

    exportsByFrame[rec->baseFrame] = rec.get();
    exports.push_back(std::move(rec));
    stExports.inc();
    return ExportId(exports.size() - 1);
}

void
Endpoint::enableNotifications(ExportId id, NotificationHandler handler)
{
    if (id >= exports.size())
        fatal("enableNotifications: bad export id %u", id);
    ExportRecord &rec = *exports[id];
    rec.notifications = true;
    rec.handler = std::move(handler);
    for (std::size_t i = 0; i < rec.pages; ++i)
        _nic.setInterruptEnable(rec.baseFrame + node::Frame(i), true);
}

ProxyId
Endpoint::import(NodeId owner, ExportId id)
{
    if (int(owner) >= _cluster.nodeCount())
        fatal("import: bad owner node %u", owner);
    Endpoint &peer = _cluster.vmmc(int(owner));
    if (id >= peer.exports.size())
        fatal("import: node %u has no export %u", owner, id);
    ExportRecord *rec = peer.exports[id].get();
    if (!rec->live)
        fatal("import: export %u of node %u was withdrawn", id, owner);
    if (!rec->permissions.permits(_node.id()))
        fatal("import: node %u lacks permission for export %u of "
              "node %u",
              _node.id(), id, owner);

    Import imp;
    imp.record = rec;
    imp.firstProxy = _nic.importPage(owner, rec->baseFrame, rec->pages);

    // Mapping setup is kernel work (one trap, per-page table updates).
    _node.cpu().compute(_node.params().syscallCost +
                        Tick(rec->pages) * microseconds(1.0));
    _node.cpu().sync();

    imports.push_back(std::move(imp));
    return ProxyId(imports.size() - 1);
}

std::size_t
Endpoint::importSize(ProxyId p) const
{
    if (p >= imports.size())
        fatal("importSize: bad proxy id %u", p);
    if (!imports[p].live || !imports[p].record->live)
        fatal("importSize: stale proxy %u", p);
    return imports[p].record->bytes;
}

void
Endpoint::unexport(ExportId id)
{
    if (id >= exports.size())
        fatal("unexport: bad export id %u", id);
    ExportRecord &rec = *exports[id];
    if (!rec.live)
        fatal("unexport: export %u already withdrawn", id);

    rec.live = false;
    rec.handler = nullptr;
    if (rec.notifications) {
        rec.notifications = false;
        for (std::size_t i = 0; i < rec.pages; ++i)
            _nic.setInterruptEnable(rec.baseFrame + node::Frame(i),
                                    false);
    }
    exportsByFrame.erase(rec.baseFrame);

    // Remote proxies of this buffer go stale: their OPT entries are
    // torn down, so a racing send faults instead of writing memory
    // that is no longer pinned. The imports themselves stay around
    // (still owned by the importer, who may unimport later); their
    // staleness is visible through record->live.
    for (int n = 0; n < _cluster.nodeCount(); ++n) {
        Endpoint &peer = _cluster.vmmc(n);
        for (Import &imp : peer.imports) {
            if (imp.record == &rec)
                peer._nic.invalidateProxy(imp.firstProxy);
        }
    }

    // Unpinning the pages is kernel work, like pinning them was.
    _node.cpu().compute(Tick(rec.pages) * _node.params().pagePinCost);
    if (_node.simulation().current())
        _node.cpu().sync();
    stUnexports.inc();
}

void
Endpoint::unimport(ProxyId p)
{
    if (p >= imports.size())
        fatal("unimport: bad proxy id %u", p);
    Import &imp = imports[p];
    if (!imp.live)
        fatal("unimport: proxy %u already torn down", p);

    imp.live = false;
    _nic.invalidateProxy(imp.firstProxy);

    // Unmapping is kernel work (one trap, per-page table updates).
    _node.cpu().compute(_node.params().syscallCost +
                        Tick(imp.record->pages) * microseconds(1.0));
    if (_node.simulation().current())
        _node.cpu().sync();
    stUnimports.inc();
}

void
Endpoint::send(ProxyId proxy, const void *src, std::size_t bytes,
               std::size_t dst_offset, const SendOptions &opts)
{
    if (proxy >= imports.size())
        fatal("send: bad proxy id %u", proxy);
    const Import &imp = imports[proxy];
    if (!imp.live || !imp.record->live)
        fatal("send: stale proxy %u (unimported or unexported buffer)",
              proxy);
    if (dst_offset + bytes > imp.record->bytes)
        fatal("send: transfer overruns the receive buffer");
    if (bytes == 0)
        return;

    stMessages.inc();
    stMessageBytes.inc(bytes);
    causal::OpSpan span(int(_node.id()), "vmmc.send");

    // Table 2 what-if: a kernel-mediated send traps before the
    // transfer is handed to the (same) hardware.
    if (!_cluster.config().udmaSends)
        _node.os().syscall(_node.params().kernelSendCost);

    const char *s = static_cast<const char *>(src);
    std::size_t off = dst_offset;
    std::size_t remaining = bytes;
    while (remaining > 0) {
        std::size_t page = off / node::kPageBytes;
        std::uint32_t page_off = node::pageOffset(off);
        std::size_t chunk =
            std::min<std::size_t>(remaining,
                                  node::kPageBytes - page_off);

        nic::SendDesc req;
        req.src = s;
        req.proxy = imp.firstProxy + nic::OptIndex(page);
        req.dstOffset = page_off;
        req.bytes = std::uint32_t(chunk);
        req.endOfMessage = (remaining == chunk);
        req.notify = opts.notify && req.endOfMessage;
        req.urgent = opts.urgent && req.endOfMessage;
        req.notifyId = req.endOfMessage ? opts.notifyId : 0;
        _nic.post(req);

        s += chunk;
        off += chunk;
        remaining -= chunk;
    }
}

void
Endpoint::bindAu(void *local_base, ProxyId proxy, std::size_t dst_offset,
                 std::size_t bytes, bool combining, bool notify)
{
    if (!auSupported())
        fatal("bindAu: adapter has no automatic update support");
    if (proxy >= imports.size())
        fatal("bindAu: bad proxy id %u", proxy);
    if (!imports[proxy].live || !imports[proxy].record->live)
        fatal("bindAu: stale proxy %u (unimported or unexported "
              "buffer)", proxy);
    auto &mem = _node.mem();
    if (!mem.contains(local_base) ||
        mem.offsetOf(local_base) % node::kPageBytes != 0)
        fatal("bindAu: local memory must be page-aligned arena memory");
    if (dst_offset % node::kPageBytes != 0)
        fatal("bindAu: destination offset must be page-aligned");

    const Import &imp = imports[proxy];
    std::size_t pages =
        (bytes + node::kPageBytes - 1) / node::kPageBytes;
    std::size_t first_dst_page = dst_offset / node::kPageBytes;
    if (first_dst_page + pages > imp.record->pages)
        fatal("bindAu: binding overruns the receive buffer");

    _nic.bindAu(mem.frameOf(local_base), pages, imp.record->owner,
                imp.record->baseFrame + node::Frame(first_dst_page),
                combining, notify);

    // OPT reprogramming is kernel work.
    _node.cpu().compute(_node.params().syscallCost +
                        Tick(pages) * microseconds(1.0));
    _node.cpu().sync();
    stAuBindings.inc(pages);
}

void
Endpoint::unbindAu(void *local_base, std::size_t bytes)
{
    std::size_t pages =
        (bytes + node::kPageBytes - 1) / node::kPageBytes;
    _nic.unbindAu(_node.mem().frameOf(local_base), pages);
}

void
Endpoint::waitUntil(const std::function<bool()> &cond)
{
    Simulation &sim = _node.simulation();
    // Pending local work must complete before we can observe arrivals;
    // flushing our AU trains keeps sender ordering at blocking points.
    _nic.auFlush();
    _node.cpu().sync();

    std::uint64_t seen = _deliveries;
    while (!cond()) {
        _node.cpu().compute(_cluster.config().pollCheckCost);
        _node.cpu().sync();
        if (_deliveries == seen)
            deliveryWait.wait(sim);
        seen = _deliveries;
    }
}

void
Endpoint::onDeliver(const nic::Delivery &d)
{
    ++_deliveries;
    deliveryWait.wakeAll(_node.simulation());

    if (!d.notify)
        return;

    // The system-level handler locates the destination buffer and
    // queues the user-level notification (Sec 2.3).
    auto it = exportsByFrame.upper_bound(d.frame);
    if (it == exportsByFrame.begin())
        return;
    --it;
    ExportRecord *rec = it->second;
    if (d.frame >= rec->baseFrame + node::Frame(rec->pages))
        return;
    if (!rec->notifications || !rec->handler)
        return;

    stNotifications.inc();

    std::uint32_t buf_offset =
        std::uint32_t((d.frame - rec->baseFrame) * node::kPageBytes +
                      d.offset);
    NodeId src = d.srcNode;
    std::uint32_t bytes = d.bytes;
    NotificationHandler &h = rec->handler;
    // onDeliver runs inside the delivering packet's EventCtxScope;
    // capture that context so the (later) notification handler still
    // parents its work on the packet that requested it.
    causal::CauseCtx cause = causal::current();
    _node.os().postNotification([this, &h, src, buf_offset, bytes,
                                 cause] {
        causal::EventCtxScope cctx(cause);
        h(src, buf_offset, bytes);
        // Handler side effects count as progress for pollers.
        ++_deliveries;
        deliveryWait.wakeAll(_node.simulation());
    });
}

} // namespace shrimp::core
