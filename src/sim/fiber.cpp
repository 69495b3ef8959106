#include "sim/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include <unistd.h>

#ifdef NBCTUNE_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

#include "trace/trace.hpp"

#ifdef NBCTUNE_FIBER_ASM_SWITCH
// Saves the callee-saved registers of the x86-64 SysV ABI (rbp, rbx,
// r12-r15) and a 16-byte control slot (MXCSR at +0, x87 control word at +4)
// on the current stack, stores rsp to *save_sp, loads load_sp into rsp and
// restores the same frame from there.  Returns into whatever the loaded
// stack's frame returns to.  Frame, from the saved rsp upwards:
//   +0 MXCSR, +4 x87 CW, +16 r15, +24 r14, +32 r13, +40 r12, +48 rbx,
//   +56 rbp, +64 return address.
extern "C" void nbctune_ctx_switch(void** save_sp, void* load_sp);

asm(R"(
    .pushsection .text
    .globl nbctune_ctx_switch
    .hidden nbctune_ctx_switch
    .type nbctune_ctx_switch, @function
    .p2align 4
nbctune_ctx_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $16, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $16, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size nbctune_ctx_switch, .-nbctune_ctx_switch
    .popsection
)");
#endif

namespace nbctune::sim {

namespace {
// The fiber being entered or currently running.  Single-threaded by design.
thread_local Fiber* g_current = nullptr;

constexpr std::size_t kFallbackStackBytes = 256 * 1024;
constexpr std::size_t kMinStackBytes = 16 * 1024;

/// Physical memory in bytes, 0 if unknown.  Read once: sysconf makes a
/// system call, and worlds create fibers by the thousand.
std::size_t physical_memory_bytes() {
  static const std::size_t bytes = [] {
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long page_bytes = sysconf(_SC_PAGESIZE);
    return pages > 0 && page_bytes > 0
               ? static_cast<std::size_t>(pages) *
                     static_cast<std::size_t>(page_bytes)
               : std::size_t{0};
  }();
  return bytes;
}

std::unique_ptr<char[]> allocate_stack(std::size_t stack_bytes) {
  const auto fail = [stack_bytes](const char* why) {
    return std::runtime_error(
        "fiber: cannot allocate a " + std::to_string(stack_bytes) +
        "-byte stack (" + why + "); lower NBCTUNE_FIBER_STACK, shrink the "
        "world, or run the scenario with --exec=machine, which creates no "
        "fibers");
  };
  // Refuse a stack larger than physical memory before asking for it: it
  // could never be backed, and sanitizer allocators abort on such a
  // request instead of throwing std::bad_alloc.
  const std::size_t physical = physical_memory_bytes();
  if (physical > 0 && stack_bytes > physical) {
    throw fail("more than physical memory");
  }
  try {
    return std::unique_ptr<char[]>(new char[stack_bytes]);
  } catch (const std::bad_alloc&) {
    throw fail("out of memory");
  }
}
}  // namespace

std::size_t default_fiber_stack_bytes() {
  // Read the environment on every call so tests can vary it per world.
  if (const char* env = std::getenv("NBCTUNE_FIBER_STACK")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      const auto bytes = static_cast<std::size_t>(v);
      return bytes < kMinStackBytes ? kMinStackBytes : bytes;
    }
  }
  return kFallbackStackBytes;
}

Fiber::Fiber(Fn fn, std::size_t stack_bytes) : fn_(std::move(fn)) {
  if (!fn_) throw std::invalid_argument("Fiber requires a callable");
  if (stack_bytes == 0) stack_bytes = default_fiber_stack_bytes();
  stack_ = allocate_stack(stack_bytes);
  trace::count(trace::Ctr::SimFibersCreated);
#ifdef NBCTUNE_FIBER_ASM_SWITCH
  // Lay out the frame nbctune_ctx_switch restores on the first resume():
  // this thread's floating-point control words, six zeroed registers, the
  // trampoline as return address, and a zero fake return address above it,
  // so the trampoline starts with rsp == 8 (mod 16) as if it had been called.
  auto top = reinterpret_cast<std::uintptr_t>(stack_.get() + stack_bytes) &
             ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 10;
  std::memset(frame, 0, 10 * sizeof(std::uint64_t));
  frame[8] = reinterpret_cast<std::uint64_t>(&Fiber::trampoline);
  std::uint32_t mxcsr = 0;
  std::uint16_t x87cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87cw));
  std::memcpy(frame, &mxcsr, sizeof mxcsr);
  std::memcpy(reinterpret_cast<char*>(frame) + 4, &x87cw, sizeof x87cw);
  sp_ = frame;
#else
  if (getcontext(&ctx_) != 0) throw std::runtime_error("getcontext failed");
  ctx_.uc_stack.ss_sp = stack_.get();
  ctx_.uc_stack.ss_size = stack_bytes;
  ctx_.uc_link = &return_ctx_;
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
#endif
#ifdef NBCTUNE_FIBER_ASAN
  stack_bytes_ = stack_bytes;
#endif
}

Fiber::~Fiber() {
  // Destroying a suspended-but-unfinished fiber leaks whatever is on its
  // stack (no unwinding).  The simulator only destroys fibers after their
  // programs complete; assert in debug builds to catch misuse.
  assert(finished_ || !started_);
}

Fiber* Fiber::current() noexcept { return g_current; }

void Fiber::trampoline() {
  Fiber* self = g_current;
#ifdef NBCTUNE_FIBER_ASAN
  // First entry: no shadow to restore; record the scheduler's stack so
  // yield() can announce switches back to it.
  __sanitizer_finish_switch_fiber(nullptr, &self->sched_stack_bottom_,
                                  &self->sched_stack_size_);
#endif
  try {
    self->fn_();
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->finished_ = true;
#ifdef NBCTUNE_FIBER_ASAN
  // Final departure from this stack: null fake-stack frees the shadow.
  __sanitizer_start_switch_fiber(nullptr, self->sched_stack_bottom_,
                                 self->sched_stack_size_);
#endif
#ifdef NBCTUNE_FIBER_ASM_SWITCH
  // The trampoline has no caller to return to: switch back into resume()
  // for good.
  nbctune_ctx_switch(&self->sp_, self->return_sp_);
  __builtin_unreachable();
#else
  // uc_link returns to return_ctx_ (inside resume()).
#endif
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("resume() on finished fiber");
  if (running_) throw std::logic_error("resume() on running fiber");
  trace::count(trace::Ctr::FiberSwitches);
  Fiber* prev = g_current;
  g_current = this;
  running_ = true;
  started_ = true;
#ifdef NBCTUNE_FIBER_ASAN
  __sanitizer_start_switch_fiber(&sched_fake_stack_, stack_.get(),
                                 stack_bytes_);
#endif
#ifdef NBCTUNE_FIBER_ASM_SWITCH
  nbctune_ctx_switch(&return_sp_, sp_);
#else
  swapcontext(&return_ctx_, &ctx_);
#endif
#ifdef NBCTUNE_FIBER_ASAN
  __sanitizer_finish_switch_fiber(sched_fake_stack_, nullptr, nullptr);
#endif
  running_ = false;
  g_current = prev;
  if (pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Fiber::yield() {
  if (g_current != this || !running_)
    throw std::logic_error("yield() must be called on the running fiber");
#ifdef NBCTUNE_FIBER_ASAN
  __sanitizer_start_switch_fiber(&fiber_fake_stack_, sched_stack_bottom_,
                                 sched_stack_size_);
#endif
#ifdef NBCTUNE_FIBER_ASM_SWITCH
  nbctune_ctx_switch(&sp_, return_sp_);
#else
  swapcontext(&ctx_, &return_ctx_);
#endif
#ifdef NBCTUNE_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &sched_stack_bottom_,
                                  &sched_stack_size_);
#endif
}

}  // namespace nbctune::sim
