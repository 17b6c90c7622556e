/**
 * @file
 * Per-packet lifecycle latency attribution (the flight recorder's
 * second half; the first is sim/metrics.hh): the one stage table that
 * both packet-trace sinks read.
 *
 * Every data packet's NI payload carries a nic::PacketTrace: the
 * causal context of the sending operation plus the born, queued and
 * injected stamps. The receiving NIC adds three marks of its own --
 * the tail's arrival (the moment the mesh hands the packet over), and
 * the start and end of its receive DMA -- and its receive hook
 * (NicBase::traceReceive) turns the six marks into stage durations.
 * With lifecycle tracing on they feed log-scale per-stage histograms
 * in the StatsRegistry, which RunReport picks up as the
 * "latency_breakdown" block (schema_version 3); with the span
 * recorder on (sim/causal.hh: the causal log, its Chrome trace view,
 * or both) they become a "pkt.total" span with one child span per
 * pipeline stage.
 *
 * Stage definitions (microseconds):
 *
 *   send_overhead  queued   - born       CPU-side initiation: issue
 *                                        cost, queue-full waits, AU
 *                                        train accumulation
 *   ni_wait        injected - queued     waiting for the NI engines
 *                                        (DMA read, chip arbitration,
 *                                        FIFO backlog)
 *   wire           delivered - injected  backplane traversal incl.
 *                                        link contention
 *   rx_fifo        rxStart - delivered   waiting for the receive-side
 *                                        EISA/DMA engine to go idle
 *   delivery       rxDone  - rxStart     incoming DMA + per-packet
 *                                        processing until data lands
 *   total          rxDone  - born        end-to-end
 *
 * The five pipeline stages partition [born, rxDone], so per-stage
 * means over the causal log equal the histogram means. Tracing adds
 * no events and mutates no simulation state, so enabling it leaves
 * checksums and all pre-existing counters bit-identical.
 */

#ifndef SHRIMP_SIM_LIFECYCLE_HH
#define SHRIMP_SIM_LIFECYCLE_HH

#include <cstdint>

namespace shrimp
{

class StatsRegistry;

/** The attribution stages, in pipeline order. */
enum class LifeStage
{
    SendOverhead,
    NiWait,
    Wire,
    RxFifo,
    Delivery,
    Total,
    kCount,
};

/** A packet's six lifecycle marks, in pipeline order. */
enum class LifeMark : std::uint8_t
{
    Born,
    Queued,
    Injected,
    Delivered,
    RxStart,
    RxDone,
    kCount,
};

/** One row of the stage table. */
struct LifeStageDef
{
    const char *name; //!< report name ("send_overhead", ...)
    const char *hist; //!< histogram ("lifecycle.send_overhead_us", ...)
    const char *span; //!< causal span ("pkt.send_overhead", ...)
    LifeMark from;    //!< the stage starts at this mark...
    LifeMark to;      //!< ...and ends at this one
};

/** The stage table's row for @p s. */
const LifeStageDef &lifeStage(LifeStage s);

/**
 * Create the per-stage histograms in @p stats. Lifecycle tracing is on
 * exactly when they exist: the cluster creates them before it builds
 * its NICs, and each NIC binds them at construction.
 */
void enableLifecycle(StatsRegistry &stats);

} // namespace shrimp

#endif // SHRIMP_SIM_LIFECYCLE_HH
