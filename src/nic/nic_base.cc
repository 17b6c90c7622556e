#include "nic/nic_base.hh"

#include <algorithm>
#include <iterator>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace shrimp::nic
{

NicBase::NicBase(node::Node &n, mesh::Network &net, const Config &cfg)
    : _node(n), _net(net), _reliable(net.reliabilityEnabled()),
      _rel(cfg.reliability),
      stCorruptRx(n.simulation().stats(), "mesh.corrupt_rx"),
      stDupRx(n.simulation().stats(), "mesh.dup_rx"),
      stRetransmits(n.simulation().stats(), "mesh.retransmits"),
      stRtoFires(n.simulation().stats(), "mesh.rto_fires"),
      stAcks(n.simulation().stats(), "mesh.acks"),
      stNacks(n.simulation().stats(), "mesh.nacks")
{
    _net.attach(n.id(),
                [this](const mesh::Packet &p) { linkReceive(p); });
    // Trace packets if either sink is on: the lifecycle histograms
    // exist (the cluster creates them first) or the causal log is open.
    for (std::size_t s = 0; s < std::size(lifeHist); ++s)
        lifeHist[s] = n.simulation().stats().findHistogram(
            lifeStage(LifeStage(s)).hist);
    _tracePackets = lifeHist[0] || causal::enabled();
}

void
NicBase::bindAu(node::Frame, std::size_t, NodeId, node::Frame, bool,
                bool)
{
    fatal("this network interface does not support automatic update");
}

void
NicBase::unbindAu(node::Frame, std::size_t)
{
    fatal("this network interface does not support automatic update");
}

void
NicBase::auStore(const void *, std::uint32_t)
{
    // Writes are snooped but ignored on adapters without AU support;
    // on a bus-less adapter there is simply nothing to do.
}

void
NicBase::auFlush()
{
}

void
NicBase::auFence()
{
    auFlush();
}

std::uint64_t
NicBase::notifyCount(std::uint32_t) const
{
    fatal("%s: this network interface has no batched notification "
          "support (check caps().batchedNotify before notifyCount)",
          _node.name().c_str());
}

void
NicBase::notifyWait(std::uint32_t, std::uint64_t)
{
    fatal("%s: this network interface has no batched notification "
          "support (check caps().batchedNotify before notifyWait)",
          _node.name().c_str());
}

void
NicBase::inject(NodeId dst, std::uint32_t wire_bytes,
                std::uint32_t hw_packets,
                std::shared_ptr<NicPayload> payload)
{
    payload->trace().injected = _node.simulation().now();
    mesh::Packet mp;
    mp.src = nodeId();
    mp.dst = dst;
    mp.wireBytes = wire_bytes;
    mp.hwPackets = hw_packets;
    mp.payload = std::move(payload);
    netSend(std::move(mp));
}

void
NicBase::traceReceive(const PacketTrace &t, Tick rx_start, Tick rx_done)
{
    if (!_tracePackets)
        return;
    // The mesh hands a packet over the moment its tail arrives, so
    // the arrival mark is now.
    const Tick mark[] = {t.born,
                         t.queued,
                         t.injected,
                         _node.simulation().now(),
                         rx_start,
                         rx_done};
    static_assert(std::size(mark) == std::size_t(LifeMark::kCount));
    auto at = [&mark](LifeMark m) { return mark[std::size_t(m)]; };

    // With the causal log open, the packet is a pkt.total span whose
    // children are the pipeline stages; its id is minted first.
    int node = int(nodeId());
    causal::CauseCtx parent;
    if (causal::enabled()) {
        const LifeStageDef &total = lifeStage(LifeStage::Total);
        std::uint64_t id = causal::mintId(node);
        causal::emitSpan(id, t.cause, node, total.span, at(total.from),
                         at(total.to));
        parent = {t.cause.valid() ? t.cause.trace : id, id};
    }
    for (std::size_t s = 0; s < std::size(lifeHist); ++s) {
        const LifeStageDef &d = lifeStage(LifeStage(s));
        Tick from = at(d.from), to = at(d.to);
        if (lifeHist[s])
            lifeHist[s]->sample(toMicroseconds(to >= from ? to - from : 0));
        if (parent.valid() && LifeStage(s) != LifeStage::Total)
            causal::emitSpan(causal::mintId(node), parent, node, d.span,
                             from, to);
    }
}

// ----------------------------------------------------------------------
// Link-level reliability protocol (fault mode only)
// ----------------------------------------------------------------------

NicBase::RelChannel &
NicBase::channelFor(NodeId dst)
{
    auto [it, inserted] = channels.try_emplace(dst);
    RelChannel &ch = it->second;
    if (inserted) {
        auto &stats = _node.simulation().stats();
        if (_rel.perDestStats) {
            // Bind the per-channel observability surface once; map
            // entries are address-stable so the pointers stay valid.
            // Past kPerDestStatsMaxNodes the Cluster turns this
            // mirror off (nodes^2 scalars would swamp every report);
            // the node-wide histogram below still aggregates RTTs.
            std::string prefix =
                _node.name() + ".rel.dst" + std::to_string(dst) + ".";
            ch.stOutstanding = &stats.scalar(prefix + "outstanding");
            ch.stSrttUs = &stats.scalar(prefix + "srtt_us");
            ch.stRttvarUs = &stats.scalar(prefix + "rttvar_us");
            ch.stLastRtoUs =
                &stats.scalar(prefix + "last_rto_fire_us");
            ch.stGaveUp = &stats.scalar(prefix + "gave_up");
            ch.accRttUs = &stats.accumulator(prefix + "ack_rtt_us");
        }
        if (!rttHist)
            rttHist = &stats.logHistogram(
                _node.name() + ".rel.ack_rtt_us", 0.1, 1e5, 150);
    }
    return ch;
}

NicBase::PeerHealth
NicBase::peerHealth(NodeId dst) const
{
    auto it = channels.find(dst);
    if (it == channels.end())
        return PeerHealth();
    const RelChannel &ch = it->second;
    PeerHealth v;
    v.outstanding = ch.unacked.size();
    v.srtt = ch.srtt;
    v.rttvar = ch.rttvar;
    v.lastRtoFire = ch.lastRtoFire;
    v.rtoStreak = ch.rtoStreak;
    v.gaveUp = ch.gaveUp;
    return v;
}

std::size_t
NicBase::retransmitBacklog() const
{
    std::size_t total = 0;
    for (const auto &kv : channels)
        total += kv.second.unacked.size();
    return total;
}

void
NicBase::sampleRtt(RelChannel &ch, Tick rtt)
{
    // RFC6298-style estimators feeding the adaptive timeout: the
    // variation update uses the error against the *previous* srtt,
    // so it must run first.
    if (ch.srtt == 0) {
        ch.srtt = rtt;
        ch.rttvar = rtt / 2;
    } else {
        Tick err = rtt > ch.srtt ? rtt - ch.srtt : ch.srtt - rtt;
        ch.rttvar = (3 * ch.rttvar + err) / 4;
        ch.srtt = (7 * ch.srtt + rtt) / 8;
    }
    double us = toMicroseconds(rtt);
    rttHist->sample(us);
    if (ch.accRttUs) {
        ch.accRttUs->sample(us);
        ch.stSrttUs->set(toMicroseconds(ch.srtt));
        ch.stRttvarUs->set(toMicroseconds(ch.rttvar));
    }
}

Tick
NicBase::rtoFor(const RelChannel &ch) const
{
    if (ch.srtt == 0)
        return _rel.rtoBase;
    return std::clamp(ch.srtt + 4 * ch.rttvar, _rel.rtoBase,
                      _rel.rtoMax);
}

void
NicBase::netSend(mesh::Packet pkt)
{
    if (!_reliable) {
        _net.send(std::move(pkt));
        return;
    }

    RelChannel &ch = channelFor(pkt.dst);
    if (ch.gaveUp) {
        // The path was declared dead (fatalOnGiveUp off): sends to it
        // evaporate, like writes into an unplugged cable.
        return;
    }
    pkt.kind = mesh::PacketKind::Data;
    pkt.seq = ch.nextSeq++;
    pkt.checksum = mesh::packetChecksum(pkt);

    auto &sim = _node.simulation();
    // Keep a clean copy (in a pool slot) before handing the packet to
    // the mesh: the fault plane mutates the in-flight checksum, never
    // this copy.
    mesh::Packet *slot = _net.pool().acquire();
    *slot = pkt;
    ch.unacked.push_back(slot);
    ch.sentAt.push_back(sim.now());
    if (ch.stOutstanding)
        ch.stOutstanding->set(double(ch.unacked.size()));
    // Invariant: the timer is armed exactly while unacked is non-empty.
    if (ch.unacked.size() == 1) {
        if (ch.rtoNow == 0)
            ch.rtoNow = rtoFor(ch);
        armRto(ch, pkt.dst);
    }
    _net.send(std::move(pkt));
}

void
NicBase::linkReceive(const mesh::Packet &pkt)
{
    if (!_reliable) {
        receive(pkt);
        return;
    }

    if (pkt.checksum != mesh::packetChecksum(pkt)) {
        stCorruptRx.inc();
        if (pkt.kind == mesh::PacketKind::Data) {
            // Ask for the resend right away instead of waiting out the
            // sender's timeout. Control packets are covered by data
            // retransmission, so a corrupt ACK/NACK just evaporates.
            RelReceiver &rx = rxStreams[pkt.src];
            sendNackOnce(rx, pkt.src);
        }
        return;
    }

    if (pkt.kind == mesh::PacketKind::Ack) {
        handleAck(pkt);
        return;
    }
    if (pkt.kind == mesh::PacketKind::Nack) {
        handleNack(pkt);
        return;
    }

    RelReceiver &rx = rxStreams[pkt.src];
    if (pkt.seq < rx.expected) {
        // Go-back-N resend of something already delivered; re-ACK so
        // the sender's window moves even if the original ACK was lost.
        stDupRx.inc();
        sendCtrl(pkt.src, mesh::PacketKind::Ack, rx.expected);
        return;
    }
    if (pkt.seq > rx.expected) {
        // Gap: something ahead of us died in the mesh. One NACK per
        // missing sequence value; the sender resends everything from
        // there (go-back-N), so follow-up out-of-order arrivals need
        // no further prompting.
        sendNackOnce(rx, pkt.src);
        return;
    }

    rx.expected = pkt.seq + 1;
    rx.nackedAt = 0;
    sendCtrl(pkt.src, mesh::PacketKind::Ack, rx.expected);
    receive(pkt);
}

void
NicBase::sendNackOnce(RelReceiver &rx, NodeId src)
{
    if (rx.nackedAt == rx.expected)
        return;
    rx.nackedAt = rx.expected;
    sendCtrl(src, mesh::PacketKind::Nack, rx.expected);
}

void
NicBase::handleAck(const mesh::Packet &pkt)
{
    auto it = channels.find(pkt.src);
    if (it == channels.end())
        return;
    RelChannel &ch = it->second;
    Tick now = _node.simulation().now();

    bool progress = false;
    while (!ch.unacked.empty() && ch.unacked.front()->seq < pkt.seq) {
        // Karn's rule: a retransmitted packet's ACK is ambiguous
        // (original or copy?), so only first-transmission sequences
        // contribute round-trip samples.
        if (ch.unacked.front()->seq > ch.retxMaxSeq)
            sampleRtt(ch, now - ch.sentAt.front());
        _net.pool().release(ch.unacked.front());
        ch.unacked.pop_front();
        ch.sentAt.pop_front();
        progress = true;
    }
    if (progress) {
        ch.rtoNow = rtoFor(ch);
        ch.rtoStreak = 0;
        if (ch.stOutstanding)
            ch.stOutstanding->set(double(ch.unacked.size()));
    }
    ch.rto.cancel();
    if (!ch.unacked.empty())
        armRto(ch, pkt.src);
}

void
NicBase::handleNack(const mesh::Packet &pkt)
{
    auto it = channels.find(pkt.src);
    if (it == channels.end())
        return;
    RelChannel &ch = it->second;

    // A NACK for seq acknowledges everything before it...
    bool progress = false;
    while (!ch.unacked.empty() && ch.unacked.front()->seq < pkt.seq) {
        _net.pool().release(ch.unacked.front());
        ch.unacked.pop_front();
        ch.sentAt.pop_front();
        progress = true;
    }
    if (progress) {
        ch.rtoNow = rtoFor(ch);
        ch.rtoStreak = 0;
        if (ch.stOutstanding)
            ch.stOutstanding->set(double(ch.unacked.size()));
    }
    // ...and requests a go-back-N resend of everything from it on.
    if (!ch.unacked.empty())
        retransmit(ch, pkt.src);
    else
        ch.rto.cancel();
}

void
NicBase::retransmit(RelChannel &ch, NodeId dst)
{
    auto &sim = _node.simulation();

    ch.retxMaxSeq = std::max(ch.retxMaxSeq, ch.unacked.back()->seq);
    for (std::size_t i = 0; i < ch.unacked.size(); ++i) {
        stRetransmits.inc();
        // The buffered copy shares the original send's payload and so
        // its causal context: the resend — and the eventual delivery —
        // stay parented on the operation that first sent the packet.
        if (causal::enabled()) {
            auto *payload =
                static_cast<NicPayload *>(ch.unacked[i]->payload.get());
            causal::emitRetx(payload->trace().cause, int(nodeId()),
                             sim.now());
        }
        mesh::Packet copy = *ch.unacked[i];
        _net.send(std::move(copy));
    }
    ch.rto.cancel();
    armRto(ch, dst);
}

void
NicBase::armRto(RelChannel &ch, NodeId dst)
{
    auto &sim = _node.simulation();
    ch.rto = sim.scheduleCancellable(ch.rtoNow,
                                     [this, dst] { rtoFire(dst); });
}

void
NicBase::rtoFire(NodeId dst)
{
    RelChannel &ch = channelFor(dst);
    if (ch.unacked.empty())
        return;

    auto &sim = _node.simulation();
    stRtoFires.inc();
    ch.lastRtoFire = sim.now();
    if (ch.stLastRtoUs)
        ch.stLastRtoUs->set(toMicroseconds(sim.now()));
    if (++ch.rtoStreak > _rel.rtoGiveUp) {
        ch.gaveUp = true;
        if (ch.stGaveUp)
            ch.stGaveUp->set(1.0);
        if (_rel.fatalOnGiveUp)
            fatal("%s: %d retransmission timeouts to node %u without "
                  "progress -- link permanently down?",
                  _node.name().c_str(), ch.rtoStreak, dst);
        // Non-fatal death: release the retransmit window (nothing will
        // ever ACK it), stop the timer, and let blocked upper layers
        // re-check peerHealth().
        while (!ch.unacked.empty()) {
            _net.pool().release(ch.unacked.front());
            ch.unacked.pop_front();
            ch.sentAt.pop_front();
        }
        if (ch.stOutstanding)
            ch.stOutstanding->set(0.0);
        ch.rto.cancel();
        if (peerDeadHook)
            peerDeadHook(dst);
        return;
    }
    ch.rtoNow = std::min(ch.rtoNow * 2, _rel.rtoMax);
    retransmit(ch, dst);
}

void
NicBase::sendCtrl(NodeId dst, mesh::PacketKind kind, std::uint64_t seq)
{
    (kind == mesh::PacketKind::Ack ? stAcks : stNacks).inc();

    mesh::Packet pkt;
    pkt.src = _node.id();
    pkt.dst = dst;
    pkt.wireBytes = _rel.ctrlWireBytes;
    pkt.hwPackets = 1;
    pkt.kind = kind;
    pkt.seq = seq;
    pkt.checksum = mesh::packetChecksum(pkt);
    _net.send(std::move(pkt));
}

} // namespace shrimp::nic
