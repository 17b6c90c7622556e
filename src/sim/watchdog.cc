#include "sim/watchdog.hh"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>

namespace shrimp
{

namespace
{

/**
 * SIGUSR1 just raises this flag; the watchdog thread polls it every
 * wait step and performs the (non-async-safe) dump itself. The flag
 * is shared between a signal handler and another thread, so it must
 * be an atomic (volatile orders neither) and lock-free (a handler
 * may not take a lock).
 */
std::atomic<bool> g_dump_requested{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the SIGUSR1 flag must be async-signal-safe");

void
onSigusr1(int)
{
    g_dump_requested.store(true, std::memory_order_relaxed);
}

} // anonymous namespace

void
Watchdog::start(int stall_secs, SnapshotFn s, DetailFn d)
{
    if (stall_secs <= 0)
        return;
    stop();
    stallSecs = stall_secs;
    snap = std::move(s);
    detail = std::move(d);
    exiting = false;
    std::signal(SIGUSR1, onSigusr1);
    th = std::thread([this] { loop(); });
}

void
Watchdog::stop()
{
    if (!th.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(m);
        exiting = true;
    }
    cv.notify_all();
    th.join();
}

void
Watchdog::loop()
{
    using clock = std::chrono::steady_clock;
    Snapshot last = snap();
    clock::time_point last_progress = clock::now();

    std::unique_lock<std::mutex> lock(m);
    for (;;) {
        // Short steps keep both the SIGUSR1 flag poll and shutdown
        // responsive regardless of the stall threshold.
        cv.wait_for(lock, std::chrono::milliseconds(200),
                    [this] { return exiting; });
        if (exiting)
            return;

        Snapshot cur = snap();
        bool progressed =
            cur.nowPs != last.nowPs || cur.executed != last.executed;
        if (progressed) {
            last = cur;
            last_progress = clock::now();
        }
        double idle = std::chrono::duration<double>(clock::now() -
                                                    last_progress)
                          .count();

        if (g_dump_requested.exchange(false, std::memory_order_relaxed)) {
            dump(cur, false, idle);
        } else if (idle >= double(stallSecs)) {
            dump(cur, true, idle);
            // Re-arm: one dump per threshold interval, not per step.
            last_progress = clock::now();
        }
    }
}

void
Watchdog::dump(const Snapshot &s, bool stalled, double idle_secs)
{
    std::fprintf(stderr,
                 "watchdog: %s sim_time=%.3f us executed_events=%llu "
                 "queued_events=%llu idle=%.1f s\n",
                 stalled ? "NO PROGRESS —" : "status:",
                 double(s.nowPs) / 1e6,
                 (unsigned long long)s.executed,
                 (unsigned long long)s.pending, idle_secs);
    if (detail) {
        std::string extra = detail();
        if (!extra.empty())
            std::fputs(extra.c_str(), stderr);
    }
    std::fflush(stderr);
}

} // namespace shrimp
