#include "fiber.hh"

#include <cstdint>
#include <cstring>

#include "sim/logging.hh"

#ifdef SCMP_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

#ifndef SCMP_FIBER_UCONTEXT
extern "C" void scmpFiberSwitch(void **saveSp, void *newSp);
extern "C" void scmpFiberEntryThunk();
extern "C" void
scmpFiberEntry(scmp::Fiber *self)
{
    // Runs on the fiber's own stack; never returns.
    scmp::Fiber::trampolineEntry(self);
}
#endif

namespace scmp
{

namespace
{
thread_local Fiber *currentFiber = nullptr;
} // namespace

Fiber *
Fiber::current()
{
    return currentFiber;
}

Fiber::Fiber(std::function<void()> fn, std::size_t stackBytes)
    : _fn(std::move(fn)),
      _stack(new char[stackBytes]),
      _stackBytes(stackBytes)
{
    panic_if(stackBytes < 16 * 1024, "fiber stack too small");
#ifdef SCMP_FIBER_UCONTEXT
    // Deferred to first entry (prepare()); nothing to do here.
#else
    // Carve the initial switch frame at the top of the stack:
    //   [r15 r14 r13 r12 rbx rbp] [thunk return address]
    // with r12 = this so the thunk can find us. Keep the stack
    // 16-byte aligned; the thunk re-aligns before its call anyway.
    auto top = (std::uintptr_t)(_stack.get() + stackBytes);
    top &= ~(std::uintptr_t)15;
    auto *slots = (std::uint64_t *)top;
    slots -= 7;
    slots[0] = 0;                                // r15
    slots[1] = 0;                                // r14
    slots[2] = 0;                                // r13
    slots[3] = (std::uint64_t)this;              // r12
    slots[4] = 0;                                // rbx
    slots[5] = 0;                                // rbp
    slots[6] = (std::uint64_t)&scmpFiberEntryThunk;
    _sp = slots;
#endif
}

Fiber::~Fiber()
{
    // Destroying a suspended fiber simply frees its stack; the
    // fiber body's destructors do not run. Engine threads always
    // run to completion, so this path only matters for tests and
    // microbenchmarks that abandon a fiber mid-flight.
    panic_if(Fiber::current() == this,
             "a fiber cannot destroy itself");
}

/*
 * AddressSanitizer tracks one stack per thread. Unless every switch
 * is announced, the first exception unwound on a fiber stack (a TM
 * abort) cannot clear the poison of the frames it pops, and later
 * frames at those addresses report false overflows.
 */
void
Fiber::asanLeave(Fiber *next)
{
#ifdef SCMP_FIBER_ASAN
    if (!next) {
        __sanitizer_start_switch_fiber(&_asanFakeStack, _resumerStack,
                                       _resumerStackBytes);
        return;
    }
    next->_resumerStack = _resumerStack;
    next->_resumerStackBytes = _resumerStackBytes;
    __sanitizer_start_switch_fiber(&_asanFakeStack, next->_stack.get(),
                                   next->_stackBytes);
#else
    (void)next;
#endif
}

void
Fiber::asanArrive()
{
#ifdef SCMP_FIBER_ASAN
    const void *from = nullptr;
    std::size_t fromBytes = 0;
    __sanitizer_finish_switch_fiber(_asanFakeStack, &from, &fromBytes);
    // Entered by resume(): the stack we came from is the resumer's.
    // Entered by switchTo(): the resumer was inherited instead.
    if (!_resumerStack) {
        _resumerStack = from;
        _resumerStackBytes = fromBytes;
    }
#endif
}

void
Fiber::trampolineEntry(Fiber *self)
{
    self->asanArrive();
    self->_fn();
    self->_finished = true;
    // Return control to the resumer forever; resuming again panics
    // before ever reaching this loop.
    for (;;)
        yieldToCaller();
}

#ifdef SCMP_FIBER_UCONTEXT

namespace
{
void
ucontextTrampoline(unsigned hi, unsigned lo)
{
    auto ptr = ((std::uintptr_t)hi << 32) | (std::uintptr_t)lo;
    Fiber::trampolineEntry((Fiber *)ptr);
}
} // namespace

void
Fiber::prepare()
{
    if (_started)
        return;
    _started = true;
    getcontext(&_context);
    _context.uc_stack.ss_sp = _stack.get();
    _context.uc_stack.ss_size = _stackBytes;
    // trampolineEntry never returns, so no successor context.
    _context.uc_link = nullptr;
    auto ptr = (std::uintptr_t)this;
    makecontext(&_context, (void (*)())ucontextTrampoline, 2,
                (unsigned)(ptr >> 32), (unsigned)ptr);
}

#endif

void
Fiber::resume()
{
    panic_if(_finished, "resuming a finished fiber");
    panic_if(currentFiber == this, "fiber resuming itself");
    Fiber *previous = currentFiber;
    currentFiber = this;
#ifdef SCMP_FIBER_ASAN
    void *fakeStack = nullptr;
    _resumerStack = nullptr;
    __sanitizer_start_switch_fiber(&fakeStack, _stack.get(), _stackBytes);
#endif
#ifdef SCMP_FIBER_UCONTEXT
    prepare();
    // The resumer's context lives in this frame, which stays put
    // until a fiber of the hand-off chain yields back into it.
    ucontext_t caller;
    _callerContext = &caller;
    swapcontext(&caller, &_context);
#else
    scmpFiberSwitch(&_callerSp, _sp);
#endif
#ifdef SCMP_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
    currentFiber = previous;
}

void
Fiber::yieldToCaller()
{
    Fiber *self = currentFiber;
    panic_if(!self, "yieldToCaller outside any fiber");
    self->asanLeave(nullptr);
#ifdef SCMP_FIBER_UCONTEXT
    swapcontext(&self->_context, self->_callerContext);
#else
    scmpFiberSwitch(&self->_sp, self->_callerSp);
#endif
    self->asanArrive();
}

void
Fiber::switchTo(Fiber &next)
{
    Fiber *self = currentFiber;
    panic_if(!self, "switchTo outside any fiber");
    panic_if(&next == self, "fiber switching to itself");
    panic_if(next._finished, "switching to a finished fiber");
    currentFiber = &next;
    self->asanLeave(&next);
#ifdef SCMP_FIBER_UCONTEXT
    next.prepare();
    next._callerContext = self->_callerContext;
    swapcontext(&self->_context, &next._context);
#else
    next._callerSp = self->_callerSp;
    scmpFiberSwitch(&self->_sp, next._sp);
#endif
    self->asanArrive();
}

} // namespace scmp
