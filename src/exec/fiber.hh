/**
 * @file
 * Stackful cooperative fibers.
 *
 * The direct-execution engine runs each simulated processor's
 * workload code on its own fiber and switches between them at
 * memory-reference granularity, so the switch must be cheap. On
 * x86-64 we use a ~15-instruction assembly switch that saves only
 * the System-V callee-saved registers; elsewhere (or when the build
 * pre-defines SCMP_FIBER_UCONTEXT) we fall back to POSIX ucontext.
 */

#ifndef SCMP_EXEC_FIBER_HH
#define SCMP_EXEC_FIBER_HH

#include <cstddef>
#include <functional>
#include <memory>

#if !defined(__x86_64__) && !defined(SCMP_FIBER_UCONTEXT)
#define SCMP_FIBER_UCONTEXT 1
#endif

#ifdef SCMP_FIBER_UCONTEXT
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define SCMP_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCMP_FIBER_ASAN 1
#endif
#endif

namespace scmp
{

/**
 * A fiber with its own stack. resume() transfers control from a
 * caller (the resumer) into a fiber; Fiber::yieldToCaller()
 * transfers control back to it. In between, the running fiber may
 * hand control sideways with Fiber::switchTo(): the target fiber
 * inherits the running fiber's resumer, so a chain of hand-offs
 * costs one context switch each and the fiber that eventually
 * yields returns control to the original resume() call. A fiber
 * whose function returns becomes finished() and yields to its
 * resumer; resuming or switching to a finished fiber is a
 * simulator bug.
 */
class Fiber
{
  public:
    /**
     * @param fn         Body to run on the fiber.
     * @param stackBytes Stack size; must cover the workload's
     *                   deepest recursion (octree traversals).
     */
    explicit Fiber(std::function<void()> fn,
                   std::size_t stackBytes = 512 * 1024);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Switch from the caller into this fiber. */
    void resume();

    /** Switch from inside the currently-running fiber back out. */
    static void yieldToCaller();

    /**
     * Switch from inside the currently-running fiber straight into
     * @p next, which takes over the running fiber's resumer. The
     * running fiber is suspended until something resumes or
     * switches back to it.
     */
    static void switchTo(Fiber &next);

    /** @return true once the fiber body has returned. */
    bool finished() const { return _finished; }

    /** @return the fiber currently executing, or nullptr. */
    static Fiber *current();

    /** Internal: first frame on a new fiber's stack. Not API. */
    static void trampolineEntry(Fiber *self);

  private:

    std::function<void()> _fn;
    std::unique_ptr<char[]> _stack;
    std::size_t _stackBytes;
    bool _finished = false;

    /// @name AddressSanitizer stack-switch annotations; no-ops in
    /// other builds (see fiber.cc).
    /// @{
    /**
     * Last thing on this fiber's stack before switching to @p next
     * (which inherits the resumer), or to the resumer when null.
     */
    void asanLeave(Fiber *next);
    /** First thing on this fiber's stack after each switch in. */
    void asanArrive();
#ifdef SCMP_FIBER_ASAN
    void *_asanFakeStack = nullptr;
    /** The resumer's stack; null until learned on arrival. */
    const void *_resumerStack = nullptr;
    std::size_t _resumerStackBytes = 0;
#endif
    /// @}

#ifdef SCMP_FIBER_UCONTEXT
    /** Build the initial context on first entry. */
    void prepare();

    bool _started = false;
    ucontext_t _context;
    /** The resumer's context, saved in its resume() frame. */
    ucontext_t *_callerContext = nullptr;
#else
    void *_sp = nullptr;        //!< fiber's saved stack pointer
    void *_callerSp = nullptr;  //!< resumer's saved stack pointer
#endif
};

} // namespace scmp

#endif // SCMP_EXEC_FIBER_HH
