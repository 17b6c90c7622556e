#include "msg/nx.hh"

#include <algorithm>
#include <cstring>

#include "sim/causal.hh"
#include "sim/logging.hh"

namespace shrimp::msg
{

namespace
{

/** Message type value marking a wrap-to-ring-start record. */
constexpr std::uint32_t kWrapType = 0xffffffffu;

/** Round up to the 16-byte framing granule. */
constexpr std::size_t
align16(std::size_t n)
{
    return (n + 15) / 16 * 16;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// NxDomain
// ---------------------------------------------------------------------

NxDomain::NxDomain(core::Cluster &cluster, const NxConfig &config)
    : cluster(cluster), config(config), coll(cluster, config.nprocs),
      exported(config.nprocs, false)
{
    int n = config.nprocs;
    if (n < 1 || n > cluster.nodeCount())
        fatal("NxDomain: nprocs %d out of range", n);
    if (config.ringBytes % node::kPageBytes != 0)
        fatal("NxDomain: ring size must be a page multiple");

    // Eager all-pairs rings are the honest NX model, but on big
    // meshes n-1 rings per node can't keep the 16-node ring size:
    // cap the per-node ring budget and halve the ring until it fits
    // (never below 8 pages, so a paper-sized message still fits in
    // cap/2). Geometries up to ~128 ranks keep the configured size
    // and therefore byte-identical behavior.
    constexpr std::size_t kRingBudget = 32 * 1024 * 1024;
    constexpr std::size_t kRingFloor = 8 * node::kPageBytes;
    while (this->config.ringBytes > kRingFloor &&
           std::size_t(n - 1) * this->config.ringBytes > kRingBudget)
        this->config.ringBytes /= 2;

    procs.resize(n);
    for (int r = 0; r < n; ++r)
        procs[r] = std::unique_ptr<NxProcess>(new NxProcess(*this, r));
    inRings.assign(n, std::vector<InRing>(n));
    outRings.assign(n, std::vector<OutRing>(n));
    creditPages.assign(n, nullptr);
    creditExports.assign(n, core::kInvalidExport);
    creditProxies.assign(n, std::vector<core::ProxyId>(
                                n, core::kInvalidProxy));
}

NxDomain::~NxDomain() = default;

void
NxDomain::init(int rank)
{
    int n = config.nprocs;
    core::Endpoint &ep = cluster.vmmc(rank);
    auto &mem = ep.node().mem();

    // Export one incoming ring per peer plus the credit page.
    for (int peer = 0; peer < n; ++peer) {
        if (peer == rank)
            continue;
        InRing &ring = inRings[rank][peer];
        // Fresh arena pages read as zero; no memset, or the whole
        // n^2-ring matrix faults into host RSS at construction.
        ring.base = static_cast<char *>(
            mem.alloc(config.ringBytes, true));
        ring.exp = ep.exportBuffer(ring.base, config.ringBytes);
    }
    // One 8-byte credit slot per peer; a single page only covers 512
    // ranks, so round the region up to however many pages n needs.
    std::size_t credit_bytes =
        (std::size_t(n) * sizeof(std::uint64_t) + node::kPageBytes -
         1) /
        node::kPageBytes * node::kPageBytes;
    creditPages[rank] =
        static_cast<char *>(mem.alloc(credit_bytes, true));
    creditExports[rank] =
        ep.exportBuffer(creditPages[rank], credit_bytes);
    exported[rank] = true;

    // Rendezvous (model-level), then import peers' rings.
    Simulation &sim = ep.node().simulation();
    auto all = [this] {
        for (bool e : exported)
            if (!e)
                return false;
        return true;
    };
    while (!all())
        sim.delay(microseconds(10));

    for (int peer = 0; peer < n; ++peer) {
        if (peer == rank)
            continue;
        OutRing &out = outRings[rank][peer];
        out.proxy = ep.import(NodeId(peer), inRings[peer][rank].exp);
        out.credit = reinterpret_cast<volatile std::uint64_t *>(
            creditPages[rank] + peer * sizeof(std::uint64_t));
        creditProxies[rank][peer] =
            ep.import(NodeId(peer), creditExports[peer]);
        if (config.useAutomaticUpdate) {
            if (!ep.auSupported())
                fatal("NX AU variant needs an AU-capable NIC");
            out.auStage = static_cast<char *>(
                mem.alloc(config.ringBytes, true));
            ep.bindAu(out.auStage, out.proxy, 0, config.ringBytes,
                      config.auCombining);
        }
    }

    coll.init(rank);
}

// ---------------------------------------------------------------------
// NxProcess
// ---------------------------------------------------------------------

int
NxProcess::numnodes() const
{
    return dom.config.nprocs;
}

void
NxProcess::checkPeerAlive(int peer) const
{
    if (dom.cluster.peerHealth(rank, peer).gaveUp ||
        dom.cluster.peerHealth(peer, rank).gaveUp)
        fatal("NX rank %d: peer %d declared dead "
              "(link-level retransmission gave up)",
              rank, peer);
}

void
NxProcess::csend(int type, const void *buf, std::size_t len, int to)
{
    if (to == rank)
        fatal("NX: send-to-self is not supported");
    if (to < 0 || to >= dom.config.nprocs)
        fatal("NX: bad destination rank %d", to);

    core::Endpoint &ep = dom.cluster.vmmc(rank);
    NxDomain::OutRing &out = dom.outRings[rank][to];
    const std::size_t cap = dom.config.ringBytes;

    std::size_t total = sizeof(MsgHeader) + align16(len) +
                        sizeof(MsgTrailer);
    if (total > cap / 2)
        fatal("NX: message of %zu bytes exceeds ring capacity", len);

    ep.node().cpu().sync(); // close out compute time first
    ScopedCategory cat(account, TimeCategory::Communication);
    causal::OpSpan span(rank, "nx.csend");

    // Never let a record cross the ring end: pad to the top first.
    std::size_t off = out.writePos % cap;
    bool need_wrap = off + total > cap;
    std::size_t wrap_bytes = need_wrap ? cap - off : 0;
    std::size_t need = total + wrap_bytes;

    // Flow control: wait for the receiver's credit returns.
    ep.waitUntil([this, &out, need, cap, to] {
        checkPeerAlive(to);
        return out.writePos + need - *out.credit <= cap;
    });

    if (need_wrap) {
        MsgHeader wrap{out.nextSeq, kWrapType, 0, 0};
        // The wrap record consumes the rest of the ring; only the
        // 16-byte marker is actually transmitted.
        if (dom.config.useAutomaticUpdate) {
            ep.auWriteBlock(out.auStage + off, &wrap, sizeof(wrap));
        } else {
            ep.send(out.proxy, &wrap, sizeof(wrap), off);
        }
        out.writePos += wrap_bytes;
        ++out.nextSeq;
        off = 0;
    }

    // Assemble the framed message and push it with one VMMC message
    // (chunks deliver in order, and the trailer lands last).
    std::vector<char> frame(total);
    MsgHeader hdr{out.nextSeq, std::uint32_t(type),
                  std::uint32_t(len), 0};
    std::memcpy(frame.data(), &hdr, sizeof(hdr));
    std::memcpy(frame.data() + sizeof(hdr), buf, len);
    MsgTrailer trl{out.nextSeq, 0};
    std::memcpy(frame.data() + total - sizeof(trl), &trl, sizeof(trl));

    if (!stSends) {
        auto &stats = ep.node().simulation().stats();
        stSends = CounterHandle(stats, ep.node().name() + ".nx.sends");
        stSendBytes =
            CounterHandle(stats, ep.node().name() + ".nx.send_bytes");
    }
    stSends.inc();
    stSendBytes.inc(len);

    if (dom.config.useAutomaticUpdate) {
        // Library-level gather into the AU-bound staging ring; the
        // stores propagate as a side effect and flush here.
        ep.auWriteBlock(out.auStage + off, frame.data(), total);
        ep.auFlush();
    } else {
        ep.send(out.proxy, frame.data(), total, off);
    }
    out.writePos += total;
    ++out.nextSeq;
}

bool
NxProcess::drainRingFrom(int src)
{
    NxDomain::InRing &ring = dom.inRings[rank][src];
    core::Endpoint &ep = dom.cluster.vmmc(rank);
    auto &cpu = ep.node().cpu();
    const std::size_t cap = dom.config.ringBytes;
    bool got = false;

    for (;;) {
        std::size_t off = ring.readPos % cap;
        cpu.chargeAccess(2);
        const auto *hdr =
            reinterpret_cast<const MsgHeader *>(ring.base + off);
        ring.idle = hdr->seq != ring.nextSeq;
        if (ring.idle)
            break;

        if (hdr->type == kWrapType) {
            ring.readPos += cap - off;
            ring.consumed += cap - off;
            ++ring.nextSeq;
            continue;
        }

        std::size_t total = sizeof(MsgHeader) + align16(hdr->len) +
                            sizeof(MsgTrailer);
        const auto *trl = reinterpret_cast<const MsgTrailer *>(
            ring.base + off + total - sizeof(MsgTrailer));
        cpu.chargeAccess(1);
        if (trl->seq != ring.nextSeq)
            break; // payload still in flight

        PendingMsg m;
        m.src = src;
        m.type = int(hdr->type);
        m.data.assign(ring.base + off + sizeof(MsgHeader),
                      ring.base + off + sizeof(MsgHeader) + hdr->len);
        cpu.chargeCopy(hdr->len);
        pending.push_back(std::move(m));

        ring.readPos += total;
        ring.consumed += total;
        ++ring.nextSeq;
        got = true;

        if (ring.consumed - ring.creditsSent > cap / 4)
            sendCredits(src);
    }
    return got;
}

void
NxProcess::sendCredits(int src)
{
    NxDomain::InRing &ring = dom.inRings[rank][src];
    core::Endpoint &ep = dom.cluster.vmmc(rank);
    std::uint64_t consumed = ring.consumed;
    // Write my consumed count into the peer's credit page at my slot.
    ep.send(dom.creditProxies[rank][src], &consumed,
            sizeof(consumed), std::size_t(rank) * sizeof(std::uint64_t));
    ring.creditsSent = consumed;
}

void
NxProcess::drainRings()
{
    core::Endpoint &ep = dom.cluster.vmmc(rank);
    const nic::NicBase &nic = ep.nic();
    auto &cpu = ep.node().cpu();
    // Skipped header reads are charged in one sum, always before the
    // next real drain: a drain may block in sendCredits(), and the
    // CPU's pending work must then be what per-ring charging gives.
    std::uint64_t skipped = 0;
    for (int src = 0; src < dom.config.nprocs; ++src) {
        if (src == rank)
            continue;
        NxDomain::InRing &ring = dom.inRings[rank][src];
        std::uint64_t arrived = nic.arrivals(NodeId(src));
        if (ring.idle && ring.seenArrivals == arrived) {
            skipped += 2;
            continue;
        }
        if (skipped) {
            cpu.chargeAccess(skipped);
            skipped = 0;
        }
        ring.seenArrivals = arrived;
        drainRingFrom(src);
    }
    if (skipped)
        cpu.chargeAccess(skipped);
}

std::size_t
NxProcess::crecv(int typesel, void *buf, std::size_t maxlen)
{
    return crecvProbe(typesel, -1, buf, maxlen, nullptr);
}

std::size_t
NxProcess::crecvProbe(int typesel, int from, void *buf,
                      std::size_t maxlen, int *src_out)
{
    core::Endpoint &ep = dom.cluster.vmmc(rank);
    ep.node().cpu().sync(); // close out compute time first
    ScopedCategory cat(account, TimeCategory::Communication);
    causal::OpSpan span(rank, "nx.crecv");

    for (;;) {
        drainRings();
        for (auto it = pending.begin(); it != pending.end(); ++it) {
            if (typesel != -1 && it->type != typesel)
                continue;
            if (from != -1 && it->src != from)
                continue;
            if (it->data.size() > maxlen)
                fatal("NX: crecv buffer too small (%zu < %zu)",
                      maxlen, it->data.size());
            std::memcpy(buf, it->data.data(), it->data.size());
            ep.node().cpu().chargeCopy(it->data.size());
            std::size_t len = it->data.size();
            if (src_out)
                *src_out = it->src;
            pending.erase(it);
            return len;
        }
        std::uint64_t before = ep.deliveries();
        ep.waitUntil([this, &ep, before, from] {
            // A receive that names its sender dies as soon as that
            // peer is declared dead; a wildcard receive dies if any
            // peer it might be waiting on has.
            if (from != -1) {
                checkPeerAlive(from);
            } else {
                for (int p = 0; p < dom.config.nprocs; ++p)
                    if (p != rank)
                        checkPeerAlive(p);
            }
            return ep.deliveries() != before;
        });
    }
}

long
NxProcess::iprobe(int typesel)
{
    drainRings();
    for (const auto &m : pending) {
        if (typesel == -1 || m.type == typesel)
            return long(m.data.size());
    }
    return -1;
}

void
NxProcess::gsync()
{
    dom.coll.setAccount(rank, account);
    dom.coll.barrier(rank);
}

double
NxProcess::gdsum(double v)
{
    dom.coll.setAccount(rank, account);
    return dom.coll.reduceSum(rank, v);
}

double
NxProcess::gdhigh(double v)
{
    dom.coll.setAccount(rank, account);
    return dom.coll.reduceMax(rank, v);
}

} // namespace shrimp::msg
