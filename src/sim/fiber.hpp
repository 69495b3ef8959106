#pragma once

// Cooperative user-space fibers with a register-only context switch.
//
// The simulation runs every simulated rank as one fiber.  Exactly one fiber
// executes at any time; the scheduler (the "main" context) resumes a fiber,
// and the fiber returns control by yielding.  This gives deterministic,
// single-threaded execution with cheap context switches, which matters on
// the single-core hosts this simulator targets.
//
// On x86-64 ELF targets a switch saves only the callee-saved registers plus
// the MXCSR and x87 control words on the outgoing stack and swaps stack
// pointers: no system call (glibc's swapcontext makes an rt_sigprocmask
// call on every switch).  Other targets fall back to POSIX ucontext.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

#if defined(__x86_64__) && defined(__ELF__)
#define NBCTUNE_FIBER_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

// AddressSanitizer must be told about stack switches, or unwinding on a
// fiber stack (e.g. an exception thrown by a simulated rank) is reported
// as stack-use-after-scope.  The annotations below are no-ops otherwise.
#ifdef __SANITIZE_ADDRESS__
#define NBCTUNE_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NBCTUNE_FIBER_ASAN 1
#endif
#endif

namespace nbctune::sim {

/// Stack size used when a caller does not pick one: the NBCTUNE_FIBER_STACK
/// environment variable (bytes, clamped to >= 16 KiB), else 256 KiB.  The
/// default is generous for the schedule builders and FFT kernels that run on
/// fiber stacks; pure-collective mega-scale runs should prefer machine mode,
/// which creates no fibers at all.
[[nodiscard]] std::size_t default_fiber_stack_bytes();

/// A single cooperatively scheduled fiber.
///
/// Lifecycle: construct with the function to run, call resume() to enter it,
/// the function calls yield() to suspend back into resume()'s caller.  Once
/// the function returns, finished() is true and resume() must not be called
/// again.  Exceptions escaping the fiber function are captured and rethrown
/// from resume().
class Fiber {
 public:
  using Fn = std::function<void()>;

  /// @param fn          body executed on the fiber's own stack
  /// @param stack_bytes stack size; 0 means default_fiber_stack_bytes().
  ///                    Throws std::runtime_error (not std::bad_alloc) with
  ///                    an actionable message when the stack cannot be
  ///                    allocated.
  explicit Fiber(Fn fn, std::size_t stack_bytes = 0);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  /// Switch from the scheduler into the fiber.  Returns when the fiber
  /// yields or its function returns.  Rethrows any exception that escaped
  /// the fiber body.
  void resume();

  /// Switch from inside the fiber back to the scheduler.  Must only be
  /// called on the currently running fiber.
  void yield();

  /// True once the fiber function has returned.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// True while execution is inside this fiber (between resume and yield).
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// The fiber currently executing, or nullptr when in the scheduler.
  static Fiber* current() noexcept;

 private:
  static void trampoline();

  Fn fn_;
  std::unique_ptr<char[]> stack_;
#ifdef NBCTUNE_FIBER_ASM_SWITCH
  void* sp_ = nullptr;         // the fiber's saved stack pointer
  void* return_sp_ = nullptr;  // where to go back on yield/finish
#else
  ucontext_t ctx_{};      // the fiber's own context
  ucontext_t return_ctx_{};  // where to go back on yield/finish
#endif
  bool started_ = false;
  bool finished_ = false;
  bool running_ = false;
  std::exception_ptr pending_exception_;
#ifdef NBCTUNE_FIBER_ASAN
  std::size_t stack_bytes_ = 0;
  void* sched_fake_stack_ = nullptr;  // scheduler's shadow while in the fiber
  void* fiber_fake_stack_ = nullptr;  // fiber's shadow while suspended
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
#endif
};

}  // namespace nbctune::sim
