#include "sim/metrics.hh"

#include <charconv>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace shrimp
{

namespace
{

/** Shortest round-trip double, matching JsonWriter's formatting. */
void
writeDouble(std::ostream &os, double v)
{
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    os.write(buf, end - buf);
}

} // anonymous namespace

void
MetricsSeries::writeJsonl(std::ostream &os, const std::string &app,
                          Tick interval) const
{
    {
        JsonWriter w(os, /*pretty=*/false);
        w.beginObject();
        w.field("metrics_schema", 1);
        w.field("app", app);
        w.field("interval_us", toMicroseconds(interval));
        w.field("samples", std::uint64_t(times.size()));
        w.beginArray("columns");
        for (const auto &n : names)
            w.value(n);
        w.endArray();
        w.endObject();
    }
    os << '\n';
    for (std::size_t row = 0; row < times.size(); ++row) {
        JsonWriter w(os, /*pretty=*/false);
        w.beginObject();
        w.field("t_us", toMicroseconds(times[row]));
        w.beginArray("v");
        for (const auto &col : columns)
            w.value(col[row]);
        w.endArray();
        w.endObject();
        os << '\n';
    }
}

void
MetricsSeries::writeCsv(std::ostream &os) const
{
    os << "t_us";
    for (const auto &n : names)
        os << ',' << n;
    os << '\n';
    for (std::size_t row = 0; row < times.size(); ++row) {
        writeDouble(os, toMicroseconds(times[row]));
        for (const auto &col : columns) {
            os << ',';
            writeDouble(os, col[row]);
        }
        os << '\n';
    }
}

void
MetricsSampler::addGauge(std::string name, Gauge fn)
{
    if (running())
        fatal("MetricsSampler: cannot add gauges after start()");
    _series.names.push_back(std::move(name));
    gauges.push_back(std::move(fn));
}

void
MetricsSampler::start(Simulation &sim, Tick interval)
{
    if (running())
        fatal("MetricsSampler: started twice");
    if (interval == 0)
        fatal("MetricsSampler: interval must be > 0");
    _sim = &sim;
    _interval = interval;
    _series.columns.resize(gauges.size());
    sim.schedule(interval, [this] { tick(); });
}

void
MetricsSampler::tick()
{
    _series.times.push_back(_sim->now());
    for (std::size_t i = 0; i < gauges.size(); ++i)
        _series.columns[i].push_back(gauges[i]());
    // Keep going only while the simulation has work of its own: our
    // event has already popped, so a non-empty queue here means
    // somebody else is still running and deserves coverage.
    if (!_sim->events().empty())
        _sim->schedule(_interval, [this] { tick(); });
}

} // namespace shrimp
