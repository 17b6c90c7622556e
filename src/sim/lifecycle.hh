/**
 * @file
 * Per-packet lifecycle latency attribution (the flight recorder's
 * second half; the first is sim/metrics.hh).
 *
 * When enabled, every data packet a NIC sends gets a trace id and a
 * set of timestamps carried through the mesh (mesh::PacketLife); on
 * delivery the receiving NIC hands the stamps back here and the
 * tracer accumulates per-stage durations into log-scale histograms
 * in the StatsRegistry. RunReport picks those up as the
 * "latency_breakdown" block (schema_version 3).
 *
 * Stage definitions (all derived from the stamps, microseconds):
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
 * Tracing is sampling-only with respect to the event stream: it adds
 * no events and mutates no simulation state, so enabling it leaves
 * checksums and all pre-existing counters bit-identical.
 */

#ifndef SHRIMP_SIM_LIFECYCLE_HH
#define SHRIMP_SIM_LIFECYCLE_HH

#include <cstdint>

#include "sim/types.hh"

namespace shrimp
{

class Histogram;
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

/** Stage name as it appears in reports ("send_overhead", ...). */
const char *lifeStageName(LifeStage s);

/** Histogram name for a stage ("lifecycle.send_overhead_us", ...). */
const char *lifeStageHistName(LifeStage s);

/**
 * Issues trace ids and accumulates completed packets' stage
 * durations. One per cluster, shared by every NIC (the id sequence is
 * global so ids double as a total send order). Disabled by default;
 * enable() binds the per-stage histograms into a StatsRegistry.
 */
class LifecycleTracer
{
  public:
    /** Create the per-stage histograms in @p stats and start tracing. */
    void enable(StatsRegistry &stats);

    /**
     * Stamp packets but sample no histograms. Causal tracing
     * (sim/causal.hh) needs the per-packet stamps without the
     * histogram block, so its RunReport stays free of the
     * latency_breakdown block.
     */
    void enableStamps() { _stampOnly = true; }

    bool enabled() const { return _histEnabled || _stampOnly; }

    /** Next trace id (> 0). Call only when enabled. */
    std::uint64_t nextId() { return ++lastId; }

    /**
     * Record one delivered packet. The first four stamps come from
     * mesh::PacketLife; @p rx_start / @p rx_done bracket the
     * receiving NI's DMA into memory. No-op in stamp-only mode.
     */
    void record(Tick born, Tick queued, Tick injected, Tick delivered,
                Tick rx_start, Tick rx_done);

  private:
    bool _histEnabled = false;
    bool _stampOnly = false;
    std::uint64_t lastId = 0;
    Histogram *hist[std::size_t(LifeStage::kCount)] = {};
};

} // namespace shrimp

#endif // SHRIMP_SIM_LIFECYCLE_HH
