/**
 * @file
 * Hand-written user-level context switch (boost::context style).
 *
 * POSIX swapcontext issues a sigprocmask syscall on every switch —
 * the exact kernel-crossing-on-the-critical-path sin the SHRIMP paper
 * measures in Table 2, committed by our own simulator on every
 * simulated event. These primitives switch in ~20 ns by saving only
 * what the System V x86-64 / AAPCS64 ABIs require a function call to
 * preserve: callee-saved integer registers, the stack pointer, and
 * the FP control state (mxcsr+x87 cw / nothing extra on aarch64,
 * where d8-d15 are callee-saved and stored too). No signal mask, no
 * kernel involvement.
 *
 * The model is boost::context's fcontext: a suspended context IS its
 * stack pointer, which points at the register save area living on the
 * suspended stack. shrimp_fctx_jump(to, arg) suspends the calling
 * context and resumes `to`; it returns (in the resumed context) the
 * context that jumped here plus the argument it passed. A fresh
 * context made by shrimp_fctx_make enters its entry function with the
 * same pair. There is no "current context" object to allocate or
 * free — abandoning a suspended context is simply never jumping to it
 * again.
 *
 * Assembly implementations live in fcontext.S (x86-64 and aarch64;
 * configuring on another architecture fails, see the top-level
 * CMakeLists.txt); sim/fiber.cc is the only client.
 */

#ifndef SHRIMP_SIM_FCONTEXT_HH
#define SHRIMP_SIM_FCONTEXT_HH

#if !defined(__x86_64__) && !defined(__aarch64__)
#error "no fcontext port for this architecture (see sim/fcontext.S)"
#endif

namespace shrimp
{
namespace fctx
{

/**
 * A suspended execution context: the stack pointer under which its
 * callee-saved registers are parked. Never dereference; only pass
 * back to shrimp_fctx_jump.
 */
using Context = void *;

/**
 * What a context switch hands to the resumed side: the context that
 * just suspended to get here (jump to it to go back) and the
 * argument passed to the jump. Two pointers, returned in registers
 * (rax:rdx / x0:x1).
 */
struct Transfer
{
    Context ctx;
    void *arg;
};

} // namespace fctx
} // namespace shrimp

extern "C" {

/**
 * Suspend the calling context, resume @p to, and pass it @p arg.
 * Returns only when something jumps back here; the result identifies
 * the jumper.
 */
shrimp::fctx::Transfer shrimp_fctx_jump(shrimp::fctx::Context to,
                                        void *arg);

/**
 * Build a fresh context on the stack topped at @p stack_top (exclusive
 * upper bound, 16-byte-aligned down internally). The first jump to it
 * calls @p entry(from, arg) on that stack; @p entry must never
 * return — its last act must be a jump to another context.
 */
shrimp::fctx::Context shrimp_fctx_make(void *stack_top,
                                       void (*entry)(void *from,
                                                     void *arg));

} // extern "C"

#endif // SHRIMP_SIM_FCONTEXT_HH
