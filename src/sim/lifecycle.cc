#include "sim/lifecycle.hh"

#include <iterator>

#include "sim/stats.hh"

namespace shrimp
{

namespace
{

using M = LifeMark;

constexpr LifeStageDef kStages[] = {
    {"send_overhead", "lifecycle.send_overhead_us", "pkt.send_overhead",
     M::Born, M::Queued},
    {"ni_wait", "lifecycle.ni_wait_us", "pkt.ni_wait", M::Queued,
     M::Injected},
    {"wire", "lifecycle.wire_us", "pkt.wire", M::Injected, M::Delivered},
    {"rx_fifo", "lifecycle.rx_fifo_us", "pkt.rx_fifo", M::Delivered,
     M::RxStart},
    {"delivery", "lifecycle.delivery_us", "pkt.delivery", M::RxStart,
     M::RxDone},
    {"total", "lifecycle.total_us", "pkt.total", M::Born, M::RxDone},
};
static_assert(std::size(kStages) == std::size_t(LifeStage::kCount));

/**
 * Log-bucket geometry: 6 decades (10 ns .. 10 ms in us units) at 64
 * buckets per decade. The bucket ratio is 10^(1/64) ~= 1.037, so a
 * percentile interpolated within one bucket is within ~1.8% of the
 * exact value — tight enough that the per-stage p50s sum to the
 * end-to-end p50 within the 5% the acceptance test demands.
 */
constexpr double kLoUs = 0.01;
constexpr double kHiUs = 1e4;
constexpr std::size_t kBuckets = 384;

} // anonymous namespace

const LifeStageDef &
lifeStage(LifeStage s)
{
    return kStages[std::size_t(s)];
}

void
enableLifecycle(StatsRegistry &stats)
{
    for (const LifeStageDef &d : kStages)
        stats.logHistogram(d.hist, kLoUs, kHiUs, kBuckets);
}

} // namespace shrimp
