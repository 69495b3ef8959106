// Fiberless (machine-mode) execution: equivalence with fiber mode,
// determinism, gating, and the NBCTUNE_FIBER_STACK setting.
//
// The contract under test (exec/machine_runner.hpp): wherever both modes
// can run, machine mode produces byte-identical outcomes, trace event
// streams and counters — the only counters allowed to differ are the
// fiber-existence ones (fiber.switches, sim.fibers_created).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/microbench.hpp"
#include "harness/scenario_pool.hpp"
#include "sim/fiber.hpp"
#include "trace/trace.hpp"

namespace nbctune {
namespace {

harness::MicroScenario base_scenario() {
  harness::MicroScenario s;
  s.platform = net::crill();
  s.nprocs = 8;
  s.op = harness::OpKind::Ialltoall;
  s.bytes = 1024;
  s.compute_per_iter = 200e-6;
  s.iterations = 4;
  s.progress_calls = 3;
  s.seed = 7;
  s.noise_scale = 0.0;
  s.payload = true;
  return s;
}

struct TracedRun {
  harness::RunOutcome outcome;
  trace::FinishedTrace trace;
};

TracedRun traced_fixed(harness::MicroScenario s, harness::ExecMode mode,
                       int func_idx) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  s.exec = mode;
  TracedRun r;
  r.outcome = harness::run_fixed(s, func_idx);
  auto finished = trace::Session::instance().drain();
  EXPECT_EQ(finished.size(), 1u);
  if (!finished.empty()) r.trace = std::move(finished.front());
  return r;
}

/// Counters allowed to differ between modes: fiber existence itself.
bool mode_dependent(trace::Ctr c) {
  return c == trace::Ctr::FiberSwitches || c == trace::Ctr::SimFibersCreated;
}

void expect_equivalent(const harness::MicroScenario& s, int func_idx) {
  const TracedRun fiber = traced_fixed(s, harness::ExecMode::Fiber, func_idx);
  const TracedRun mach = traced_fixed(s, harness::ExecMode::Machine, func_idx);

  // Outcomes: exact, not approximate — the same floating-point operations
  // must have happened in the same order.
  EXPECT_EQ(fiber.outcome.impl, mach.outcome.impl);
  EXPECT_EQ(fiber.outcome.loop_time, mach.outcome.loop_time);
  EXPECT_EQ(fiber.outcome.decision_iteration, mach.outcome.decision_iteration);
  EXPECT_EQ(fiber.outcome.post_decision_time, mach.outcome.post_decision_time);
  EXPECT_EQ(fiber.outcome.post_decision_iterations,
            mach.outcome.post_decision_iterations);

  // Labels differ only by the mode tag on the last token.
  EXPECT_EQ(fiber.trace.label + "+exec=machine", mach.trace.label);

  // Event streams: identical field for field.
  ASSERT_EQ(fiber.trace.events.size(), mach.trace.events.size());
  for (std::size_t i = 0; i < fiber.trace.events.size(); ++i) {
    const trace::Event& a = fiber.trace.events[i];
    const trace::Event& b = mach.trace.events[i];
    SCOPED_TRACE("event " + std::to_string(i) + " (" + a.name + " vs " +
                 b.name + ")");
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.dur, b.dur);
    EXPECT_EQ(a.track, b.track);
    EXPECT_EQ(a.cat, b.cat);
    EXPECT_STREQ(a.name, b.name);
    EXPECT_EQ(a.aval, b.aval);
    EXPECT_EQ(a.bval, b.bval);
    EXPECT_EQ(a.corr, b.corr);
  }

  // Counters: identical except the fiber-existence set.
  for (std::size_t c = 0; c < static_cast<std::size_t>(trace::Ctr::kCount);
       ++c) {
    const auto ctr = static_cast<trace::Ctr>(c);
    if (mode_dependent(ctr)) continue;
    EXPECT_EQ(fiber.trace.counts[c], mach.trace.counts[c])
        << trace::ctr_name(ctr);
  }
  // Machine mode creates no fibers; fiber mode creates one per rank.
  const auto fibers = static_cast<std::size_t>(trace::Ctr::SimFibersCreated);
  EXPECT_EQ(mach.trace.counts[fibers], 0u);
  EXPECT_EQ(fiber.trace.counts[fibers], static_cast<std::size_t>(s.nprocs));
  // The flat World arenas are identical across modes by construction.
  const auto arena = static_cast<std::size_t>(trace::Ctr::WorldPeakArenaBytes);
  EXPECT_GT(fiber.trace.counts[arena], 0u);
  EXPECT_EQ(fiber.trace.counts[arena], mach.trace.counts[arena]);

  // Histograms too (rounds per op, progress per op, wire bytes).
  for (std::size_t h = 0; h < static_cast<std::size_t>(trace::Hist::kCount);
       ++h) {
    EXPECT_EQ(fiber.trace.hists[h].count, mach.trace.hists[h].count);
    EXPECT_EQ(fiber.trace.hists[h].sum, mach.trace.hists[h].sum);
  }
}

// ------------------------------------------------ fiber/machine equivalence

TEST(ExecEquivalence, EagerAlltoall) {
  expect_equivalent(base_scenario(), /*func_idx=*/0);
}

TEST(ExecEquivalence, EverySecondImplementation) {
  harness::MicroScenario s = base_scenario();
  const auto fset = harness::scenario_functionset(s);
  for (std::size_t f = 0; f < fset->size(); f += 2) {
    SCOPED_TRACE(fset->function(f).name);
    expect_equivalent(s, static_cast<int>(f));
  }
}

TEST(ExecEquivalence, RendezvousAlltoall) {
  harness::MicroScenario s = base_scenario();
  s.nprocs = 6;
  s.bytes = 64 * 1024;  // > crill eager limit: RTS/CTS handshake path
  expect_equivalent(s, 0);
}

TEST(ExecEquivalence, CpuDrivenBulkOnTcp) {
  harness::MicroScenario s = base_scenario();
  s.platform = net::whale_tcp();
  s.nprocs = 4;
  s.bytes = 64 * 1024;  // CPU pushes bulk chunks from the progress engine
  s.iterations = 3;
  expect_equivalent(s, 0);
}

TEST(ExecEquivalence, WithPlatformNoise) {
  harness::MicroScenario s = base_scenario();
  s.noise_scale = 1.0;  // jitter + outlier draws from per-rank streams
  expect_equivalent(s, 1 % 4);
}

TEST(ExecEquivalence, IbcastShapes) {
  harness::MicroScenario s = base_scenario();
  s.op = harness::OpKind::Ibcast;
  s.nprocs = 12;
  for (std::size_t bytes : {std::size_t{512}, std::size_t{256 * 1024}}) {
    s.bytes = bytes;
    SCOPED_TRACE(bytes);
    expect_equivalent(s, 0);
  }
}

TEST(ExecEquivalence, BlockingFunctionSetMember) {
  harness::MicroScenario s = base_scenario();
  s.include_blocking = true;
  const auto fset = harness::scenario_functionset(s);
  int blocking_idx = -1;
  for (std::size_t f = 0; f < fset->size(); ++f) {
    if (fset->function(f).blocking) blocking_idx = static_cast<int>(f);
  }
  ASSERT_GE(blocking_idx, 0);
  expect_equivalent(s, blocking_idx);
}

TEST(ExecEquivalence, FaultedLossyPlanWithoutRecovery) {
  harness::MicroScenario s = base_scenario();
  s.nprocs = 6;
  s.iterations = 6;
  // Lossy transport with ack/retransmit, but recovery explicitly off —
  // the blocking-free slice of the fault machinery both modes share.
  s.fault_plan = "drop:p=0.02;rto=0.002;retries=8;op_timeout=0";
  s.fault_plan_name = "lossy";
  expect_equivalent(s, 0);
}

// ------------------------------------------------------------ determinism

TEST(ExecDeterminism, MachineModeReproducesAcrossPoolThreadCounts) {
  auto sweep = [&](int threads) {
    std::vector<double> times(4);
    harness::ScenarioPool pool(threads);
    pool.run_indexed(times.size(), [&](std::size_t i) {
      harness::MicroScenario s = base_scenario();
      s.exec = harness::ExecMode::Machine;
      s.noise_scale = 1.0;
      s.seed = 40 + i;
      s.nprocs = 4 + static_cast<int>(i) * 2;
      times[i] = harness::run_fixed(s, 0).loop_time;
    });
    return times;
  };
  const auto t1 = sweep(1);
  const auto t4 = sweep(4);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i], t4[i]) << "scenario " << i;
  }
}

// ----------------------------------------------------------------- gating

TEST(ExecGating, RunAdclRejectsMachineMode) {
  harness::MicroScenario s = base_scenario();
  s.exec = harness::ExecMode::Machine;
  EXPECT_THROW((void)harness::run_adcl(s, adcl::TuningOptions{}),
               std::invalid_argument);
}

TEST(ExecGating, MachineModeRejectsRecoveryPlans) {
  harness::MicroScenario s = base_scenario();
  s.exec = harness::ExecMode::Machine;
  s.fault_plan = "drop:p=0.01;rto=0.002;retries=8;op_timeout=0.05";
  EXPECT_THROW((void)harness::run_fixed(s, 0), std::invalid_argument);
  s.fault_plan = "degrade:at=0.01;for=0.02;factor=4;drift_window=8";
  EXPECT_THROW((void)harness::run_fixed(s, 0), std::invalid_argument);
}

// ------------------------------------------------------- fiber stack size

TEST(ExecFiberStack, EnvOverridesAndClampsDefault) {
  ASSERT_EQ(unsetenv("NBCTUNE_FIBER_STACK"), 0);
  EXPECT_EQ(sim::default_fiber_stack_bytes(), 256u * 1024u);
  ASSERT_EQ(setenv("NBCTUNE_FIBER_STACK", "1048576", 1), 0);
  EXPECT_EQ(sim::default_fiber_stack_bytes(), 1048576u);
  ASSERT_EQ(setenv("NBCTUNE_FIBER_STACK", "4096", 1), 0);
  EXPECT_EQ(sim::default_fiber_stack_bytes(), 16u * 1024u);  // clamped
  ASSERT_EQ(setenv("NBCTUNE_FIBER_STACK", "garbage", 1), 0);
  EXPECT_EQ(sim::default_fiber_stack_bytes(), 256u * 1024u);
  ASSERT_EQ(unsetenv("NBCTUNE_FIBER_STACK"), 0);
}

TEST(ExecFiberStack, ExhaustionErrorNamesTheRemedies) {
  // An absurd per-fiber stack must fail with an actionable message, not a
  // bare bad_alloc (satellite: clear error on fiber-mode memory pressure).
  try {
    sim::Fiber f([] {}, std::size_t{1} << 48);
    FAIL() << "expected the stack allocation to fail";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("NBCTUNE_FIBER_STACK"), std::string::npos) << what;
    EXPECT_NE(what.find("--exec=machine"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace nbctune
