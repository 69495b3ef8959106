// Unit tests for the discrete-event core: event ordering, determinism,
// fiber lifecycle, process sleep/suspend/wake semantics, resources, RNG.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"

namespace sim = nbctune::sim;

// ----------------------------------------------------------------- Fiber

TEST(Fiber, RunsToCompletion) {
  int steps = 0;
  sim::Fiber f([&] { steps = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(steps, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  sim::Fiber f([&] {
    trace.push_back(1);
    sim::Fiber::current()->yield();
    trace.push_back(3);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(sim::Fiber::current(), nullptr);
  sim::Fiber* seen = nullptr;
  sim::Fiber f([&] { seen = sim::Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(sim::Fiber::current(), nullptr);
}

TEST(Fiber, ExceptionPropagatesToResume) {
  sim::Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ResumeAfterFinishThrows) {
  sim::Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(Fiber, NestedFibers) {
  std::vector<int> trace;
  sim::Fiber inner([&] { trace.push_back(2); });
  sim::Fiber outer([&] {
    trace.push_back(1);
    inner.resume();
    trace.push_back(3);
  });
  outer.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

namespace {
// Address of a 16-byte-aligned local in a fresh frame.  The compiler only
// places the local at a 16-byte offset from the frame, so the address is
// aligned only if the stack pointer obeyed the ABI on entry; the volatile
// keeps the check from being folded away.
[[gnu::noinline]] std::uintptr_t aligned_local_address() {
  alignas(16) unsigned char local[16] = {};
  volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(local);
  return addr;
}

[[gnu::noinline]] int recurse_then_throw(int depth) {
  volatile char pad[64] = {};  // real frames, not a tail loop
  if (depth == 0) throw std::runtime_error("deep");
  sim::Fiber::current()->yield();
  return pad[0] + recurse_then_throw(depth - 1);
}

std::uint64_t mix(std::uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}
}  // namespace

TEST(Fiber, StackStaysSixteenByteAlignedAcrossYields) {
  std::vector<std::uintptr_t> seen;
  sim::Fiber f([&] {
    for (int i = 0; i < 5; ++i) {
      seen.push_back(aligned_local_address());
      sim::Fiber::current()->yield();
    }
  });
  while (!f.finished()) f.resume();
  ASSERT_EQ(seen.size(), 5u);
  for (std::uintptr_t a : seen) EXPECT_EQ(a % 16, 0u) << std::hex << a;
}

TEST(Fiber, LocalsSurviveInterleavedSwitches) {
  // Many live integer locals across yield() force the callee-saved
  // registers into use; doubles live across a call are spilled to the
  // fiber's stack.  Each fiber must end with exactly the values a plain
  // call computes.
  constexpr int kFibers = 64;
  constexpr int kRounds = 50;
  auto body = [](int id, bool yield, std::uint64_t& ints, double& dbl) {
    std::uint64_t a = id + 1, b = a * 3, c = a * 5, d = a * 7, e = a * 11,
                  g = a * 13;
    double x = id * 0.25, y = 1.0 / (id + 1);
    for (int k = 0; k < kRounds; ++k) {
      if (yield) sim::Fiber::current()->yield();
      a = mix(a);
      b ^= a;
      c += b;
      d = mix(d ^ c);
      e -= d;
      g = mix(g + e);
      x = x * 1.000001 + y;
      y = y * 0.999 + 0.5;
    }
    ints = a ^ b ^ c ^ d ^ e ^ g;
    dbl = x + y;
  };
  std::vector<std::uint64_t> ints(kFibers), want_ints(kFibers);
  std::vector<double> dbls(kFibers), want_dbls(kFibers);
  std::vector<std::unique_ptr<sim::Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    body(i, false, want_ints[i], want_dbls[i]);
    fibers.push_back(std::make_unique<sim::Fiber>(
        [&, i] { body(i, true, ints[i], dbls[i]); }));
  }
  for (bool any = true; any;) {
    any = false;
    for (auto& f : fibers) {
      if (f->finished()) continue;
      f->resume();
      any = true;
    }
  }
  EXPECT_EQ(ints, want_ints);
  EXPECT_EQ(dbls, want_dbls);
}

TEST(Fiber, EachFiberKeepsItsOwnRoundingMode) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  // 1/3 through SSE (MXCSR) arithmetic; volatile stops constant folding.
  volatile double one = 1.0, three = 3.0;
  const double nearest = one / three;
  const int modes[] = {FE_UPWARD, FE_DOWNWARD, FE_TOWARDZERO, FE_TONEAREST};
  constexpr int kModes = 4;
  std::vector<double> first(kModes);
  std::vector<int> bad(kModes, 0);
  std::vector<std::unique_ptr<sim::Fiber>> fibers;
  for (int i = 0; i < kModes; ++i) {
    fibers.push_back(std::make_unique<sim::Fiber>([&, i] {
      std::fesetround(modes[i]);
      first[i] = one / three;
      for (int k = 0; k < 4; ++k) {
        sim::Fiber::current()->yield();
        if (std::fegetround() != modes[i] || one / three != first[i]) ++bad[i];
      }
    }));
  }
  for (int k = 0; k < 5; ++k) {
    for (auto& f : fibers) {
      f->resume();
      EXPECT_EQ(std::fegetround(), FE_TONEAREST);
      EXPECT_EQ(one / three, nearest);
    }
  }
  for (auto& f : fibers) EXPECT_TRUE(f->finished());
  EXPECT_EQ(bad, std::vector<int>(kModes, 0));
  EXPECT_GT(first[0], first[1]);  // upward vs downward really differ
  EXPECT_EQ(first[3], nearest);
}

TEST(Fiber, ExceptionFromDeepRecursionAfterYieldsReachesResume) {
  constexpr int kDepth = 200;
  sim::Fiber f([] { recurse_then_throw(kDepth); });
  for (int i = 0; i < kDepth; ++i) {
    f.resume();
    ASSERT_FALSE(f.finished());
  }
  try {
    f.resume();
    FAIL() << "resume() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "deep");
  }
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(sim::Fiber::current(), nullptr);
}

// ---------------------------------------------------------------- Engine

TEST(Engine, EventsFireInTimeOrder) {
  sim::Engine eng;
  std::vector<int> order;
  eng.schedule_at(2.0, [&] { order.push_back(2); });
  eng.schedule_at(1.0, [&] { order.push_back(1); });
  eng.schedule_at(3.0, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  sim::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, SchedulingInThePastThrows) {
  sim::Engine eng;
  eng.schedule_at(1.0, [&] {
    EXPECT_THROW(eng.schedule_at(0.5, [] {}), std::invalid_argument);
  });
  eng.run();
}

TEST(Engine, CancelledEventsDoNotFire) {
  sim::Engine eng;
  bool fired = false;
  auto id = eng.schedule_at(1.0, [&] { fired = true; });
  eng.cancel(id);
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, EventsCanScheduleEvents) {
  sim::Engine eng;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) eng.schedule_after(1.0, chain);
  };
  eng.schedule_at(0.0, chain);
  eng.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(eng.now(), 4.0);
}

TEST(Engine, RunUntilStopsAtTime) {
  sim::Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule_at(i, [&] { ++count; });
  }
  eng.run_until(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
}

TEST(Engine, ProcessSleepAdvancesTime) {
  sim::Engine eng;
  double t_mid = -1, t_end = -1;
  eng.add_process("p", [&](sim::Process& p) {
    p.sleep(1.5);
    t_mid = eng.now();
    p.sleep(2.5);
    t_end = eng.now();
  });
  eng.run();
  EXPECT_DOUBLE_EQ(t_mid, 1.5);
  EXPECT_DOUBLE_EQ(t_end, 4.0);
}

TEST(Engine, ProcessesInterleaveDeterministically) {
  sim::Engine eng;
  std::vector<std::string> trace;
  for (int i = 0; i < 3; ++i) {
    eng.add_process("p" + std::to_string(i), [&, i](sim::Process& p) {
      trace.push_back("a" + std::to_string(i));
      p.sleep(1.0 + i * 0.1);
      trace.push_back("b" + std::to_string(i));
    });
  }
  eng.run();
  ASSERT_EQ(trace.size(), 6u);
  // Startup in rank order, wakeups in sleep-duration order.
  EXPECT_EQ(trace[0], "a0");
  EXPECT_EQ(trace[1], "a1");
  EXPECT_EQ(trace[2], "a2");
  EXPECT_EQ(trace[3], "b0");
  EXPECT_EQ(trace[4], "b1");
  EXPECT_EQ(trace[5], "b2");
}

TEST(Engine, SuspendAndWake) {
  sim::Engine eng;
  double woken_at = -1;
  auto& p = eng.add_process("sleeper", [&](sim::Process& proc) {
    proc.suspend();
    woken_at = eng.now();
  });
  eng.schedule_at(3.0, [&] { p.wake(); });
  eng.run();
  EXPECT_DOUBLE_EQ(woken_at, 3.0);
}

TEST(Engine, WakeDuringSleepIsRemembered) {
  // A wake arriving while the process sleeps (computes) must not interrupt
  // the sleep, but the following suspend() must return immediately.
  sim::Engine eng;
  double resumed_at = -1;
  auto& p = eng.add_process("worker", [&](sim::Process& proc) {
    proc.sleep(5.0);          // wake arrives at t=2 in here
    proc.suspend();           // must not block
    resumed_at = eng.now();
  });
  eng.schedule_at(2.0, [&] { p.wake(); });
  eng.run();
  EXPECT_DOUBLE_EQ(resumed_at, 5.0);
}

TEST(Engine, CoalescedWakes) {
  sim::Engine eng;
  int wake_count = 0;
  auto& p = eng.add_process("w", [&](sim::Process& proc) {
    proc.suspend();
    ++wake_count;
    proc.suspend();
    ++wake_count;
  });
  // Two wakes at the same instant coalesce into one resume; the third
  // wake at t=2 releases the second suspend.
  eng.schedule_at(1.0, [&] {
    p.wake();
    p.wake();
  });
  eng.schedule_at(2.0, [&] { p.wake(); });
  eng.run();
  EXPECT_EQ(wake_count, 2);
}

TEST(Engine, DeadlockDetected) {
  sim::Engine eng;
  eng.add_process("stuck", [](sim::Process& p) { p.suspend(); });
  EXPECT_THROW(eng.run(), sim::Engine::DeadlockError);
}

TEST(Engine, CancelAfterFireIsANoOp) {
  sim::Engine eng;
  int fired = 0;
  auto id = eng.schedule_at(1.0, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  eng.cancel(id);  // stale id: must not blow up or affect future events
  bool later = false;
  eng.schedule_at(2.0, [&] { later = true; });
  eng.run();
  EXPECT_TRUE(later);
}

TEST(Engine, StaleCancelDoesNotKillSlotReuser) {
  // The slot of a fired event is recycled; cancelling the fired event's
  // id afterwards must not cancel the unrelated event now in that slot.
  sim::Engine eng;
  auto first = eng.schedule_at(1.0, [] {});
  eng.run();
  int fired = 0;
  eng.schedule_at(2.0, [&] { ++fired; });  // may reuse first's slot
  eng.cancel(first);
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, CancelHeavyChurnKeepsOrder) {
  // Schedule a block, cancel every other event, interleave a second
  // block reusing the freed slots: survivors fire in (time, seq) order.
  sim::Engine eng;
  std::vector<int> order;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(eng.schedule_at(1.0 + i, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 2) eng.cancel(ids[i]);
  for (int i = 100; i < 150; ++i) {
    eng.schedule_at(1.0 + i, [&order, i] { order.push_back(i); });
  }
  eng.run();
  std::vector<int> expect;
  for (int i = 1; i < 100; i += 2) expect.push_back(i);
  for (int i = 100; i < 150; ++i) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(Engine, ZeroDelayEventsRunFifoAfterPendingHeapEvents) {
  // Heap events already due at the current instant precede zero-delay
  // events scheduled from within a callback at that instant; zero-delay
  // chains preserve FIFO order.
  sim::Engine eng;
  std::vector<std::string> trace;
  eng.schedule_at(1.0, [&] {
    trace.push_back("a");
    eng.schedule_after(0.0, [&] {
      trace.push_back("c");
      eng.schedule_after(0.0, [&] { trace.push_back("e"); });
      eng.schedule_after(0.0, [&] { trace.push_back("f"); });
    });
    eng.schedule_after(0.0, [&] { trace.push_back("d"); });
  });
  eng.schedule_at(1.0, [&] { trace.push_back("b"); });  // already in heap
  eng.schedule_at(2.0, [&] { trace.push_back("g"); });
  eng.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"a", "b", "c", "d", "e", "f",
                                             "g"}));
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
}

TEST(Engine, ZeroDelayEventCanBeCancelled) {
  sim::Engine eng;
  bool fired = false;
  eng.schedule_at(1.0, [&] {
    auto id = eng.schedule_after(0.0, [&] { fired = true; });
    eng.cancel(id);
  });
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RunUntilDoesNotRunZeroDelayPastLimit) {
  // run_until(t) must not fire events scheduled at a now_ beyond t.
  sim::Engine eng;
  eng.schedule_at(5.0, [] {});
  eng.run();  // now_ == 5
  bool fired = false;
  eng.schedule_after(0.0, [&] { fired = true; });  // at t == 5
  eng.run_until(3.0);                              // in the past: no-op
  EXPECT_FALSE(fired);
  eng.run_until(5.0);  // events at exactly t still fire
  EXPECT_TRUE(fired);
}

TEST(Engine, EventsProcessedCountsOnlyExecuted) {
  sim::Engine eng;
  auto a = eng.schedule_at(1.0, [] {});
  eng.schedule_at(2.0, [] {});
  eng.cancel(a);
  eng.run();
  EXPECT_EQ(eng.events_processed(), 1u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Engine eng(1234);
    std::vector<double> samples;
    eng.add_process("p", [&](sim::Process& p) {
      for (int i = 0; i < 100; ++i) {
        p.sleep(eng.rng().uniform(0.0, 1.0));
        samples.push_back(eng.now());
      }
    });
    eng.run();
    return samples;
  };
  EXPECT_EQ(run_once(), run_once());
}

// -------------------------------------------------------------- Resource

TEST(Resource, SerializesReservations) {
  sim::Resource r;
  auto a = r.reserve(0.0, 2.0);
  auto b = r.reserve(0.0, 3.0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(a.end, 2.0);
  EXPECT_DOUBLE_EQ(b.start, 2.0);  // queued behind a
  EXPECT_DOUBLE_EQ(b.end, 5.0);
}

TEST(Resource, IdleGapsRespectEarliest) {
  sim::Resource r;
  auto a = r.reserve(0.0, 1.0);
  auto b = r.reserve(10.0, 1.0);  // resource idle 1..10
  EXPECT_DOUBLE_EQ(a.end, 1.0);
  EXPECT_DOUBLE_EQ(b.start, 10.0);
  EXPECT_DOUBLE_EQ(r.busy_total(), 2.0);
  EXPECT_EQ(r.reservations(), 2u);
}

TEST(Resource, ResetClearsState) {
  sim::Resource r;
  r.reserve(0.0, 5.0);
  r.reset();
  EXPECT_DOUBLE_EQ(r.available_at(), 0.0);
  auto s = r.reserve(0.0, 1.0);
  EXPECT_DOUBLE_EQ(s.start, 0.0);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  sim::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  sim::Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  sim::Rng r(42);
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMeanAndSpread) {
  sim::Rng r(42);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}
