#include "sim/fiber.hh"

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/logging.hh"

namespace shrimp
{

constinit thread_local Fiber *Fiber::current_fiber = nullptr;

// ----------------------------------------------------------------------
// FiberStack
// ----------------------------------------------------------------------

namespace
{

std::size_t
hostPageSize()
{
    static const std::size_t page = std::size_t(::sysconf(_SC_PAGESIZE));
    return page;
}

// Live-stack registry: lets globalHighWaterBytes() probe stacks that
// are still mapped (a run's fibers are only destroyed with the
// Simulation, typically after the report is written). All cold-path —
// stack creation, destruction, and report time.
std::mutex g_stackMutex;
FiberStack *g_stackHead = nullptr;
std::uint64_t g_stackRetiredHwm = 0;

} // anonymous namespace

FiberStack::FiberStack(std::size_t n) : bytes(n)
{
    guardBytes = hostPageSize();
    void *p = ::mmap(nullptr, bytes + guardBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                     0);
    if (p == MAP_FAILED)
        fatal("cannot map a %zu-byte fiber stack", bytes);
    base = static_cast<char *>(p);
    if (::mprotect(base, guardBytes, PROT_NONE) != 0)
        fatal("cannot arm the fiber stack guard page");

    std::lock_guard<std::mutex> lock(g_stackMutex);
    next = g_stackHead;
    if (next)
        next->prev = this;
    g_stackHead = this;
}

FiberStack::~FiberStack()
{
    {
        std::lock_guard<std::mutex> lock(g_stackMutex);
        std::uint64_t hwm = highWaterBytes();
        if (hwm > g_stackRetiredHwm)
            g_stackRetiredHwm = hwm;
        if (prev)
            prev->next = next;
        else
            g_stackHead = next;
        if (next)
            next->prev = prev;
    }
    ::munmap(base, bytes + guardBytes);
}

std::size_t
FiberStack::highWaterBytes() const
{
    // Residency scan: MAP_NORESERVE pages only become resident when
    // written, and anonymous pages are never reclaimed behind our
    // back (no swap in the deployment targets), so the lowest
    // resident page marks the deepest the stack ever grew. mincore
    // reads whole pages; msync(MS_ASYNC) would work too but probes
    // nothing mincore doesn't.
    const std::size_t page = guardBytes;
    const std::size_t npages = (bytes + page - 1) / page;
    std::vector<unsigned char> resident(npages);
    if (::mincore(data(), npages * page, resident.data()) != 0)
        return 0;
    for (std::size_t i = 0; i < npages; ++i) {
        if (resident[i])
            return (npages - i) * page;
    }
    return 0;
}

std::uint64_t
FiberStack::globalHighWaterBytes()
{
    std::lock_guard<std::mutex> lock(g_stackMutex);
    std::uint64_t hwm = g_stackRetiredHwm;
    for (const FiberStack *s = g_stackHead; s; s = s->next) {
        std::uint64_t h = s->highWaterBytes();
        if (h > hwm)
            hwm = h;
    }
    return hwm;
}

// ----------------------------------------------------------------------
// Fiber — shared pieces
// ----------------------------------------------------------------------

void
Fiber::run()
{
    body();
    _finished = true;
    running = false;
    setCurrentFiber(nullptr);
    ++_switches;
    // Return to whoever resumed us; this context is never re-entered.
    TSAN_FIBER_SWITCH(tsanReturn);
    // Final exit: a null fake-stack slot tells ASan to retire this
    // fiber's fake stack instead of parking it.
    ASAN_START_SWITCH(nullptr, retStackBottom, retStackSize);
    shrimp_fctx_jump(retCtx, this);
    panic("finished fiber resumed");
}

double
Fiber::measureSwitchNs()
{
    constexpr int kRounds = 2000;
    Fiber f(FiberBody([] {
        for (;;)
            Fiber::current()->yield();
    }));
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRounds; ++i)
        f.resume();
    auto t1 = std::chrono::steady_clock::now();
    double ns = double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           t1 - t0)
                           .count());
    // Each resume is one transfer in and one back out.
    return ns / (2.0 * kRounds);
}

// ----------------------------------------------------------------------
// Fiber — construction and first entry (sim/fcontext.hh)
// ----------------------------------------------------------------------


Fiber::Fiber(FiberBody body, std::size_t stack_bytes)
    : body(std::move(body)), stack(stack_bytes)
{
    fctx = shrimp_fctx_make(
        static_cast<char *>(stack.data()) + stack.size(), &Fiber::entry);
    tsanFiber = TSAN_FIBER_CREATE();
}

Fiber::~Fiber()
{
    if (running)
        panic("destroying a fiber that is still running");
    if (tsanFiber)
        TSAN_FIBER_DESTROY(tsanFiber);
}

void
Fiber::entry(void *from, void *arg)
{
    // First activation: recover `this` from the jump argument and
    // remember where to give control back. The ASan handshake
    // completes the switch the resuming side started (a fresh fiber
    // has no parked fake stack, hence the null) and reports the
    // scheduler stack's bounds for the return trip.
    auto self = static_cast<Fiber *>(arg);
    self->retCtx = from;
#if defined(SHRIMP_ASAN_FIBERS)
    ASAN_FINISH_SWITCH(nullptr, &self->retStackBottom,
                       &self->retStackSize);
#endif
    self->run();
}

// resume() and yield() are inlined in fiber.hh.

} // namespace shrimp
