/**
 * @file
 * An NX-compatible message-passing library on VMMC (Sec 3, [2]).
 *
 * Intel NX semantics: typed messages, csend/crecv blocking calls with
 * type selectors (-1 matches anything), plus a global barrier. The
 * implementation follows the SHRIMP NX port: every pair of ranks
 * shares a receiver-side ring buffer written by deliberate update (or
 * automatic update, Sec 4.2's what-if), with receiver-driven credit
 * returns for flow control and polling receives — no receive-side
 * interrupts.
 */

#ifndef SHRIMP_MSG_NX_HH
#define SHRIMP_MSG_NX_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/collective.hh"
#include "core/vmmc.hh"
#include "sim/time_account.hh"

namespace shrimp::msg
{

/** Configuration of an NX domain. */
struct NxConfig
{
    int nprocs = 16;

    /** Per-pair ring capacity. */
    std::size_t ringBytes = 256 * 1024;

    /**
     * Use automatic update instead of deliberate update as the bulk
     * transfer mechanism (the Sec 4.2 experiment).
     */
    bool useAutomaticUpdate = false;

    /** Combining for the AU variant (Sec 4.5.1). */
    bool auCombining = true;
};

class NxDomain;

/**
 * Per-rank NX library handle; all calls must be made from the rank's
 * process.
 */
class NxProcess
{
  public:
    /** Rank of this process. */
    int mynode() const { return rank; }

    /** Number of ranks. */
    int numnodes() const;

    /**
     * Blocking typed send of @p len bytes to rank @p to.
     * Returns when the application buffer is reusable.
     */
    void csend(int type, const void *buf, std::size_t len, int to);

    /**
     * Blocking typed receive: first pending message whose type
     * matches @p typesel (-1 = any). @return the message length.
     * fatal() if the message exceeds @p maxlen.
     */
    std::size_t crecv(int typesel, void *buf, std::size_t maxlen);

    /**
     * Like crecv but also returns/filters the sender.
     *
     * @param from Only match messages from this rank (-1 = any).
     * @param src_out If non-null, receives the sender rank.
     */
    std::size_t crecvProbe(int typesel, int from, void *buf,
                           std::size_t maxlen, int *src_out);

    /** @return a matching pending message's length, or -1. */
    long iprobe(int typesel);

    /** Global synchronization across the domain. */
    void gsync();

    /** Global double sum (NX gdsum with a single element). */
    double gdsum(double v);

    /** Global double max. */
    double gdhigh(double v);

    /** Attach a time account: waits charge Communication/Barrier. */
    void setAccount(TimeAccount *a) { account = a; }

  private:
    friend class NxDomain;

    NxProcess(NxDomain &dom, int rank) : dom(dom), rank(rank) {}

    /** Header framing each ring message. */
    struct MsgHeader
    {
        std::uint32_t seq;     //!< 1-based per-pair sequence
        std::uint32_t type;
        std::uint32_t len;
        std::uint32_t pad;
    };

    /** Trailer stamp written after the payload (arrival marker). */
    struct MsgTrailer
    {
        std::uint32_t seq;
        std::uint32_t pad;
    };

    struct PendingMsg
    {
        int src;
        int type;
        std::vector<char> data;
    };

    /**
     * Poll every peer's ring. A ring whose last drain stopped at a
     * stale header, and from whose peer nothing has landed since
     * (NicBase::arrivals), would read that same header again: it is
     * skipped, and only the header read's cost is charged.
     */
    void drainRings();
    bool drainRingFrom(int src);
    void sendCredits(int src);

    /**
     * Fatal if either direction to @p peer has been declared dead
     * (Cluster::peerHealth — the link-level retransmission gave up).
     * Checked from blocking-wait predicates so a stuck csend/crecv
     * dies with a diagnosis instead of hanging.
     */
    void checkPeerAlive(int peer) const;

    NxDomain &dom;
    int rank;
    TimeAccount *account = nullptr;
    std::deque<PendingMsg> pending;

    // Interned per-process statistics, bound on first send (lazy;
    // see sim/stats.hh).
    CounterHandle stSends;
    CounterHandle stSendBytes;
};

/**
 * An NX domain over ranks 0..n-1 on nodes 0..n-1 of a cluster.
 *
 * Construct once, then have each rank call init() from its process
 * before any communication.
 */
class NxDomain
{
  public:
    NxDomain(core::Cluster &cluster, const NxConfig &config);
    ~NxDomain();

    /** Collective setup; call first from every rank's process. */
    void init(int rank);

    /** The per-rank library handle. */
    NxProcess &process(int rank) { return *procs.at(rank); }

    /** Number of ranks. */
    int size() const { return config.nprocs; }

    core::Cluster &clusterRef() { return cluster; }

  private:
    friend class NxProcess;

    /** Receiver-side state for one incoming pair ring. */
    struct InRing
    {
        char *base = nullptr;        //!< exported ring memory
        core::ExportId exp = core::kInvalidExport;
        std::uint64_t readPos = 0;   //!< consumed bytes (mod capacity)
        std::uint32_t nextSeq = 1;
        std::uint64_t consumed = 0;  //!< total consumed bytes
        std::uint64_t creditsSent = 0;

        /** The NIC's arrival count from the peer before the last drain. */
        std::uint64_t seenArrivals = 0;
        /** The last drain stopped at a header not yet written. */
        bool idle = false;
    };

    /** Sender-side state for one outgoing pair ring. */
    struct OutRing
    {
        core::ProxyId proxy = core::kInvalidProxy;
        std::uint64_t writePos = 0;  //!< produced bytes (total)
        char *auStage = nullptr;     //!< AU-bound staging copy
        /** Credit word (peer writes total consumed) in my credit page. */
        volatile std::uint64_t *credit = nullptr;
        std::uint32_t nextSeq = 1;
    };

    core::Cluster &cluster;
    NxConfig config;
    core::Collective coll;

    std::vector<std::unique_ptr<NxProcess>> procs;

    // [rank][peer] state; indexed by the owning rank.
    std::vector<std::vector<InRing>> inRings;
    std::vector<std::vector<OutRing>> outRings;

    // Credit pages: credits[rank] holds one u64 per peer, exported by
    // rank and written by its peers as they consume.
    std::vector<char *> creditPages;
    std::vector<core::ExportId> creditExports;
    std::vector<std::vector<core::ProxyId>> creditProxies;

    std::vector<bool> exported;
};

} // namespace shrimp::msg

#endif // SHRIMP_MSG_NX_HH
