#include "bench/sweep.hh"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "core/run_config.hh"
#include "sim/causal.hh"
#include "sim/logging.hh"
#include "sim/run_report.hh"

namespace shrimp::bench
{

namespace
{

/**
 * An append-only line sink: one shared FILE handle for the whole
 * process, lazily opened, append-guarded by a mutex. A bad path is
 * complained about exactly once. Chunks are written verbatim (callers
 * terminate their own lines), so one sink serves both the one-line
 * RunReport stream and multi-line metrics series.
 */
class LineSink
{
  public:
    /** Append @p chunk to the file @p p (the knob's current value). */
    void
    append(const std::string &p, const std::string &chunk)
    {
        std::lock_guard<std::mutex> lock(mutex);
        // Open once per path; if the environment repoints the sink
        // (tests do), switch files. A bad path warns exactly once.
        if (path != p) {
            if (out)
                std::fclose(out);
            path = p;
            out = std::fopen(p.c_str(), "a");
            if (!out)
                warn("cannot append to %s", p.c_str());
        }
        if (!out)
            return;
        std::fputs(chunk.c_str(), out);
        std::fflush(out);
    }

  private:
    std::string path;
    std::mutex mutex;
    std::FILE *out = nullptr;
};

LineSink g_reportSink;  //!< SHRIMP_REPORT_JSONL
LineSink g_metricsSink; //!< SHRIMP_METRICS

/**
 * While a sweep job runs, its thread redirects report lines and
 * metrics chunks into per-job buffers; the sweep flushes the buffers
 * in submission order.
 */
thread_local std::vector<std::string> *tl_report_buffer = nullptr;
thread_local std::vector<std::string> *tl_metrics_buffer = nullptr;

/**
 * Sweeps in flight. While nonzero, only sweep worker threads (which
 * carry per-job buffers) may emit: a direct append from any other
 * thread would interleave with the submission-ordered flush and break
 * the SHRIMP_JOBS=1 vs =N byte-identity guarantee, so it panics
 * instead of corrupting the file quietly.
 */
std::atomic<int> g_sweepsActive{0};

void
assertSinkOwnership(const char *what)
{
    if (g_sweepsActive.load(std::memory_order_relaxed) > 0)
        panic("%s from a thread that is not a sweep worker while a "
              "sweep is running; emit from the job itself (the sink's "
              "flush ordering assumes one writer per path)",
              what);
}

} // anonymous namespace

int
sweepJobs()
{
    return core::envRunConfig().jobs;
}

void
emitReport(const RunReport &report)
{
    std::string path = core::envRunConfig().reportJsonl;
    if (path.empty())
        return;
    std::string line = report.toJson(/*pretty=*/false);
    line += '\n';
    if (tl_report_buffer) {
        tl_report_buffer->push_back(std::move(line));
    } else {
        assertSinkOwnership("emitReport");
        g_reportSink.append(path, line);
    }
}

void
emitMetrics(const std::string &chunk)
{
    std::string path = core::envRunConfig().metricsFile;
    if (path.empty())
        return;
    if (tl_metrics_buffer) {
        tl_metrics_buffer->push_back(chunk);
    } else {
        assertSinkOwnership("emitMetrics");
        g_metricsSink.append(path, chunk);
    }
}

namespace detail
{

void
runJobs(std::size_t count, const std::function<void(std::size_t)> &run_one)
{
    if (count == 0)
        return;

    std::vector<std::vector<std::string>> buffers(count);
    std::vector<std::vector<std::string>> metricsBuffers(count);

    auto run_buffered = [&](std::size_t i) {
        tl_report_buffer = &buffers[i];
        tl_metrics_buffer = &metricsBuffers[i];
        run_one(i);
        tl_report_buffer = nullptr;
        tl_metrics_buffer = nullptr;
    };

    // The span recorder is process-global and single-threaded. Open
    // it from the environment here, before any worker exists, and
    // keep a recording sweep on one worker.
    core::RunConfig env = core::startFromEnv();
    std::size_t workers = std::size_t(env.jobs);
    if (workers > count)
        workers = count;
    if (causal::enabled())
        workers = 1;

    g_sweepsActive.fetch_add(1, std::memory_order_relaxed);

    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            run_buffered(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                for (;;) {
                    std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= count)
                        return;
                    run_buffered(i);
                }
            });
        }
        for (auto &t : pool)
            t.join();
    }

    g_sweepsActive.fetch_sub(1, std::memory_order_relaxed);

    // Submission-ordered flush: byte-identical serial vs parallel.
    for (auto &buf : buffers)
        for (auto &line : buf)
            g_reportSink.append(env.reportJsonl, line);
    for (auto &buf : metricsBuffers)
        for (auto &chunk : buf)
            g_metricsSink.append(env.metricsFile, chunk);
}

} // namespace detail

} // namespace shrimp::bench
