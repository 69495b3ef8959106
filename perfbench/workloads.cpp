#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>

#include "adcl/adcl.hpp"
#include "fault/fault.hpp"
#include "fft/fft3d.hpp"
#include "harness/microbench.hpp"
#include "harness/scenario_pool.hpp"
#include "mpi/world.hpp"
#include "net/machine.hpp"
#include "net/platform.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using namespace nbctune;
using harness::MicroScenario;
using harness::OpKind;
using harness::RunOutcome;

namespace {

/// splitmix64 of (seed, index): independent per-scenario seeds.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

void digest_outcome(RepResult& r, const std::string& label,
                    const RunOutcome& o) {
  r.digest += label + "|" + o.impl + "|" + hex_bits(o.loop_time) + "|" +
              std::to_string(o.decision_iteration) + "\n";
}

/// Counts one attempted scenario, and on leaving scope counts it failed
/// once if any of its checks failed, whatever their number.
class ScenarioCheck {
 public:
  explicit ScenarioCheck(RepResult& r) : r_(r), before_(r.failures.size()) {
    ++r_.attempted;
  }
  ~ScenarioCheck() {
    if (r_.failures.size() > before_) ++r_.failed;
  }
  ScenarioCheck(const ScenarioCheck&) = delete;
  ScenarioCheck& operator=(const ScenarioCheck&) = delete;

 private:
  RepResult& r_;
  std::size_t before_;
};

/// The output checks every harness outcome must pass.
void check_outcome(RepResult& r, const std::string& label, const RunOutcome& o,
                   const adcl::FunctionSet& fset, int iterations) {
  if (fset.find_by_name(o.impl) < 0) {
    r.failures.push_back(label + ": winner '" + o.impl +
                         "' is not in the function set");
  }
  if (!std::isfinite(o.loop_time) || o.loop_time <= 0.0) {
    r.failures.push_back(label + ": loop time " + std::to_string(o.loop_time) +
                         " is not finite and positive");
  }
  if (o.decision_iteration > iterations) {
    r.failures.push_back(label + ": decision iteration " +
                         std::to_string(o.decision_iteration) + " > " +
                         std::to_string(iterations) + " iterations");
  }
}

/// Platform and topology construction for every distinct platform a
/// workload uses (the simulated cluster's resources and hierarchy).
class Platforms {
 public:
  void build(SpanLog& spans, std::int64_t parent, int rep,
             const std::vector<std::string>& names) {
    by_name_.clear();
    for (const std::string& n : names) {
      if (by_name_.count(n) != 0) continue;
      Span s(spans, "net.platform", parent, -1, rep);
      Built b{net::platform_by_name(n), nullptr, nullptr};
      b.topology = std::make_unique<net::Topology>(b.platform);
      b.machine = std::make_unique<net::Machine>(b.platform);
      by_name_.emplace(n, std::move(b));
    }
  }
  [[nodiscard]] const net::Platform& get(const std::string& n) const {
    return by_name_.at(n).platform;
  }

 private:
  struct Built {
    net::Platform platform;
    std::unique_ptr<net::Topology> topology;
    std::unique_ptr<net::Machine> machine;
  };
  std::map<std::string, Built> by_name_;
};

std::shared_ptr<const adcl::FunctionSet> build_functionset(
    SpanLog& spans, std::int64_t parent, int rep, std::int64_t scenario,
    const MicroScenario& s) {
  Span span(spans, "coll.scenario_functionset", parent, scenario, rep);
  return harness::scenario_functionset(s);
}

/// Pools by size, created on first use and kept for the process.
class Pools {
 public:
  harness::ScenarioPool& get(int threads) {
    auto& p = pools_[threads];
    if (!p) p = std::make_unique<harness::ScenarioPool>(threads);
    return *p;
  }
  [[nodiscard]] std::uint64_t steals() const {
    std::uint64_t n = 0;
    for (const auto& [k, p] : pools_) n += p->stats().steals;
    return n;
  }

 private:
  std::map<int, std::unique_ptr<harness::ScenarioPool>> pools_;
};

// ------------------------------------------------------------ verify-sweep

/// Verification runs (paper §IV-A, Fig. 2) as one outer pool batch over
/// uneven cases, each calling run_verification on the same pool (the
/// nested batch runs inline on the worker).  Fiber mode.
class VerifySweep final : public Workload {
 public:
  explicit VerifySweep(std::uint64_t seed) : seed_(seed) {}
  int threads() const override { return 2; }

  void setup(SpanLog& spans, int rep) override {
    Span root(spans, "bench.setup", -1, -1, rep);
    std::vector<std::string> names;
    for (const Case& c : kCases) names.push_back(c.platform);
    platforms_.build(spans, root.id(), rep, names);
    scenarios_.clear();
    fsets_.clear();
    for (std::size_t i = 0; i < std::size(kCases); ++i) {
      const Case& c = kCases[i];
      MicroScenario s;
      s.platform = platforms_.get(c.platform);
      s.nprocs = c.nprocs;
      s.op = c.op;
      s.bytes = c.bytes;
      s.compute_per_iter = 1e-3;
      s.progress_calls = 3;
      // Noise off: decisions are a property of the tuner and the cost
      // model, not of one noise draw.  At the platforms' default noise
      // these 13 cases scored 0.54-0.81 decision accuracy across seeds.
      s.noise_scale = 0.0;
      s.seed = mix(seed_, i);
      fsets_.push_back(build_functionset(spans, root.id(), rep,
                                         static_cast<std::int64_t>(i), s));
      // Enough iterations for brute force to measure every member
      // kTests times, plus a post-decision tail.
      s.iterations = static_cast<int>(fsets_.back()->size()) * kTests + 4;
      scenarios_.push_back(std::move(s));
    }
  }

  RepResult run(int threads, SpanLog& spans, int rep,
                std::int64_t rep_span) override {
    const std::size_t n = scenarios_.size();
    std::vector<harness::VerificationRun> runs(n);
    std::vector<std::string> errors(n);
    harness::ScenarioPool& pool = pools_.get(threads);
    {
      Span batch(spans, "harness.ScenarioPool.run_indexed", rep_span, -1, rep);
      pool.run_indexed(n, [&](std::size_t i) {
        Span s(spans, "harness.run_verification", batch.id(),
               static_cast<std::int64_t>(i), rep);
        try {
          runs[i] = harness::run_verification(scenarios_[i], kTests, &pool);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    }
    RepResult r;
    int correct = 0, decisions = 0;
    double slowdown = 0.0, learn = 0.0, loop = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const MicroScenario& s = scenarios_[i];
      const std::string label = case_label(i);
      const ScenarioCheck check(r);
      if (!errors[i].empty()) {
        r.failures.push_back(label + ": threw: " + errors[i]);
        continue;
      }
      const harness::VerificationRun& v = runs[i];
      r.rank_iters += std::uint64_t(v.fixed.size() + 2) * s.iterations *
                      std::uint64_t(s.nprocs);
      for (const RunOutcome& f : v.fixed) {
        check_outcome(r, label + " fixed", f, *fsets_[i], s.iterations);
        digest_outcome(r, label + " fixed", f);
      }
      if (v.best_fixed < 0 || v.fixed.size() != fsets_[i]->size()) {
        r.failures.push_back(label + ": no best fixed run");
        continue;
      }
      const double best = v.fixed[v.best_fixed].loop_time;
      for (const auto& [tuned, ok] :
           {std::pair{&v.adcl_bruteforce, v.bruteforce_correct},
            std::pair{&v.adcl_heuristic, v.heuristic_correct}}) {
        check_outcome(r, label + " adcl", *tuned, *fsets_[i], s.iterations);
        digest_outcome(r, label + " adcl", *tuned);
        correct += ok ? 1 : 0;
        ++decisions;
        slowdown += tuned->loop_time / best;
        learn += tuned->loop_time - tuned->post_decision_time;
        loop += tuned->loop_time;
      }
    }
    if (decisions > 0) {
      r.decision_accuracy = double(correct) / decisions;
      r.sim_slowdown = slowdown / decisions;
      r.learning_frac = learn / loop;
    }
    return r;
  }

  std::uint64_t steals() const override { return pools_.steals(); }

 private:
  struct Case {
    const char* platform;
    OpKind op;
    int nprocs;
    std::size_t bytes;
  };
  // Three ops on both whale fabrics at a small power-of-two and a
  // non-power-of-two rank count, plus one larger crill case that sets the
  // batch's tail.  Sizes sit above the 12 KiB eager limit (rendezvous).
  static constexpr int kTests = 2;
  static constexpr Case kCases[] = {
      {"whale", OpKind::Ialltoall, 8, 32 * 1024},
      {"whale", OpKind::Ialltoall, 12, 32 * 1024},
      {"whale-tcp", OpKind::Ialltoall, 8, 32 * 1024},
      {"whale-tcp", OpKind::Ialltoall, 12, 32 * 1024},
      {"whale", OpKind::Iallreduce, 8, 64 * 1024},
      {"whale", OpKind::Iallreduce, 12, 64 * 1024},
      {"whale-tcp", OpKind::Iallreduce, 8, 64 * 1024},
      {"whale-tcp", OpKind::Iallreduce, 12, 64 * 1024},
      {"whale", OpKind::Ibcast, 8, 256 * 1024},
      {"whale", OpKind::Ibcast, 12, 256 * 1024},
      {"whale-tcp", OpKind::Ibcast, 8, 256 * 1024},
      {"whale-tcp", OpKind::Ibcast, 12, 256 * 1024},
      {"crill", OpKind::Ialltoall, 48, 32 * 1024},
  };

  std::string case_label(std::size_t i) const {
    const Case& c = kCases[i];
    return std::string(harness::op_name(c.op)) + " " + c.platform + " np" +
           std::to_string(c.nprocs);
  }

  std::uint64_t seed_;
  Platforms platforms_;
  std::vector<MicroScenario> scenarios_;
  std::vector<std::shared_ptr<const adcl::FunctionSet>> fsets_;
  Pools pools_;
};

// ------------------------------------------------------------ pinned-scale

/// Machine-mode pinned runs at thousands of ranks on `mega`: engine
/// dispatch, exec arenas and schedules do nearly all the work.  Bypasses
/// the pool, ADCL, fibers and faults.
class PinnedScale final : public Workload {
 public:
  explicit PinnedScale(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanLog& spans, int rep) override {
    Span root(spans, "bench.setup", -1, -1, rep);
    platforms_.build(spans, root.id(), rep, {"mega"});
    scenarios_.clear();
    fsets_.clear();
    pinned_.clear();
    for (std::size_t i = 0; i < std::size(kCases); ++i) {
      const Case& c = kCases[i];
      MicroScenario s;
      s.platform = platforms_.get("mega");
      s.nprocs = c.nprocs;
      s.op = c.op;
      s.bytes = c.bytes;
      s.compute_per_iter = 100e-6;
      s.progress_calls = 2;
      s.iterations = kIterations;
      s.exec = harness::ExecMode::Machine;
      // Noise off: with noise on, the seed changes how many events coincide
      // (and take the engine's zero-delay FIFO path), which moved host time
      // per rep by ~25% between seeds for the same rank-iterations.
      s.noise_scale = 0.0;
      s.seed = mix(seed_, i);
      const auto fset = build_functionset(spans, root.id(), rep,
                                          static_cast<std::int64_t>(i), s);
      const int idx = fset->find_by_name(c.impl);
      if (idx < 0) {
        throw std::runtime_error(std::string("pinned-scale: no member ") +
                                 c.impl);
      }
      pinned_.push_back(idx);
      fsets_.push_back(fset);
      scenarios_.push_back(std::move(s));
    }
  }

  RepResult run(int, SpanLog& spans, int rep, std::int64_t rep_span) override {
    RepResult r;
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      const MicroScenario& s = scenarios_[i];
      const std::string label = std::string(harness::op_name(s.op)) +
                                " mega np" + std::to_string(s.nprocs);
      const ScenarioCheck check(r);
      RunOutcome o;
      try {
        Span span(spans, "harness.run_fixed", rep_span,
                  static_cast<std::int64_t>(i), rep);
        o = harness::run_fixed(s, pinned_[i]);
      } catch (const std::exception& e) {
        r.failures.push_back(label + ": threw: " + e.what());
        continue;
      }
      r.rank_iters += std::uint64_t(s.iterations) * std::uint64_t(s.nprocs);
      if (o.impl != kCases[i].impl) {
        r.failures.push_back(label + ": ran '" + o.impl + "', pinned '" +
                             kCases[i].impl + "'");
      }
      check_outcome(r, label, o, *fsets_[i], s.iterations);
      digest_outcome(r, label, o);
    }
    return r;
  }

 private:
  struct Case {
    OpKind op;
    int nprocs;
    std::size_t bytes;
    const char* impl;
  };
  static constexpr int kIterations = 12;
  // Binomial-tree broadcast at a power-of-two and a non-power-of-two rank
  // count, and recursive-doubling allreduce of 256 doubles.  (Off powers
  // of two that member builds a ring: O(n) rounds, far costlier per rank.)
  static constexpr Case kCases[] = {
      {OpKind::Ibcast, 2048, 1024, "binomial/seg32k"},
      {OpKind::Ibcast, 1500, 1024, "binomial/seg32k"},
      {OpKind::Iallreduce, 1024, 2048, "recursive-doubling"},
  };

  std::uint64_t seed_;
  Platforms platforms_;
  std::vector<MicroScenario> scenarios_;
  std::vector<std::shared_ptr<const adcl::FunctionSet>> fsets_;
  std::vector<int> pinned_;
};

// ---------------------------------------------------------- lossy-recovery

/// Tuned Ialltoall at np16 under the canned lossy and kill plans on both
/// whale fabrics, each against the same scenario under plan `none`: the
/// only workload where the fault injector, ack/retransmit, NBC fallback
/// and lease/agreement/shrink recovery do the work.
class LossyRecovery final : public Workload {
 public:
  explicit LossyRecovery(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanLog& spans, int rep) override {
    Span root(spans, "bench.setup", -1, -1, rep);
    platforms_.build(spans, root.id(), rep, {"whale", "whale-tcp"});
    scenarios_.clear();
    fsets_.clear();
    for (const char* platform : {"whale", "whale-tcp"}) {
      for (const char* plan : kPlans) {
        MicroScenario s;
        s.platform = platforms_.get(platform);
        s.nprocs = 16;
        s.op = OpKind::Ialltoall;
        s.bytes = 64 * 1024;
        s.compute_per_iter = 2e-3;
        s.progress_calls = 3;
        // Kills land at 3-12 ms simulated; the loop must still be running.
        s.iterations = 40;
        s.noise_scale = 0.0;  // faults are the only perturbation
        s.seed = mix(seed_, scenarios_.size());
        if (std::strcmp(plan, "none") != 0) {
          Span parse(spans, "fault.FaultPlan.parse", root.id(),
                     static_cast<std::int64_t>(scenarios_.size()), rep);
          s.fault_plan = canned_spec(plan);
          s.fault_plan_name = plan;
          (void)fault::FaultPlan::parse(s.fault_plan);
        }
        fsets_.push_back(build_functionset(
            spans, root.id(), rep,
            static_cast<std::int64_t>(scenarios_.size()), s));
        scenarios_.push_back(std::move(s));
      }
    }
  }

  RepResult run(int, SpanLog& spans, int rep, std::int64_t rep_span) override {
    RepResult r;
    adcl::TuningOptions tuning;
    tuning.policy = adcl::PolicyKind::BruteForce;
    tuning.tests_per_function = 2;
    double reference = 0.0, slowdown = 0.0, learn = 0.0, loop = 0.0;
    int faulted = 0;
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      const MicroScenario& s = scenarios_[i];
      const std::string label = "ialltoall " + s.platform.name + " np16 " +
                                (s.fault_plan.empty() ? std::string("none")
                                                      : s.fault_plan_name);
      const ScenarioCheck check(r);
      RunOutcome o;
      try {
        Span span(spans, "harness.run_adcl", rep_span,
                  static_cast<std::int64_t>(i), rep);
        o = harness::run_adcl(s, tuning);
      } catch (const std::exception& e) {
        r.failures.push_back(label + ": threw: " + e.what());
        continue;
      }
      r.rank_iters += std::uint64_t(s.iterations) * std::uint64_t(s.nprocs);
      check_outcome(r, label, o, *fsets_[i], s.iterations);
      digest_outcome(r, label, o);
      learn += o.loop_time - o.post_decision_time;
      loop += o.loop_time;
      // Scenarios run plan-major per platform, `none` first.
      if (s.fault_plan.empty()) {
        reference = o.loop_time;
      } else if (reference > 0.0) {
        slowdown += o.loop_time / reference;
        ++faulted;
      }
    }
    if (faulted > 0) r.sim_slowdown = slowdown / faulted;
    if (loop > 0.0) r.learning_frac = learn / loop;
    return r;
  }

 private:
  static constexpr const char* kPlans[] = {"none",  "drops", "blackout",
                                           "mixed", "kill1", "killdrops"};

  static std::string canned_spec(const std::string& name) {
    for (const fault::CannedPlan& p : fault::canned_plans()) {
      if (p.name == name) return p.spec;
    }
    throw std::runtime_error("lossy-recovery: no canned plan " + name);
  }

  std::uint64_t seed_;
  Platforms platforms_;
  std::vector<MicroScenario> scenarios_;
  std::vector<std::shared_ptr<const adcl::FunctionSet>> fsets_;
};

// ----------------------------------------------------------- fft-transpose

/// The paper's application kernel (§IV-B): real-math forward + inverse
/// 3-D FFT on whale with the ADCL and LibNBC back-ends, all four overlap
/// patterns.  The only workload that moves real payload bytes.
class FftTranspose final : public Workload {
 public:
  /// Makes the seeded input grid, split into z-slabs.  That is the
  /// benchmark's own work, so it stays out of the timed set-up.
  explicit FftTranspose(std::uint64_t seed) : seed_(seed) {
    std::mt19937_64 gen(seed_);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    const std::size_t slab = std::size_t(kN / kProcs) * kN * kN;
    slabs_.assign(kProcs, {});
    for (auto& s : slabs_) {
      s.resize(slab);
      for (auto& x : s) x = fft::cplx(d(gen), d(gen));
    }
  }

  /// The library's FFT plan (the Fft3d constructor) is built by every rank
  /// inside the simulated world, so it is part of each scenario, not here.
  void setup(SpanLog& spans, int rep) override {
    Span root(spans, "bench.setup", -1, -1, rep);
    platforms_.build(spans, root.id(), rep, {"whale"});
    // The tuned back-end's candidate set (the Ialltoall function set).
    MicroScenario s;
    s.platform = platforms_.get("whale");
    s.op = OpKind::Ialltoall;
    fset_ = build_functionset(spans, root.id(), rep, -1, s);
  }

  RepResult run(int, SpanLog& spans, int rep, std::int64_t rep_span) override {
    RepResult r;
    double slowdown = 0.0, learn = 0.0, loop = 0.0;
    int pairs = 0;
    std::int64_t scenario = 0;
    for (fft::Pattern p : {fft::Pattern::Pipelined, fft::Pattern::Tiled,
                           fft::Pattern::Windowed, fft::Pattern::WindowTiled}) {
      double libnbc = 0.0;
      for (fft::Backend b : {fft::Backend::LibNBC, fft::Backend::Adcl}) {
        const std::string label = std::string("fft3d whale np") +
                                  std::to_string(kProcs) + " n" +
                                  std::to_string(kN) + " " +
                                  fft::pattern_name(p) + " " +
                                  fft::backend_name(b);
        const ScenarioCheck check(r);
        Outcome o;
        try {
          Span span(spans, "fft.Fft3d", rep_span, scenario, rep);
          o = run_one(p, b, mix(seed_, std::uint64_t(scenario)), spans,
                      span.id(), scenario, rep, label);
        } catch (const std::exception& e) {
          r.failures.push_back(label + ": threw: " + e.what());
          ++scenario;
          continue;
        }
        ++scenario;
        r.rank_iters += std::uint64_t(kProcs) * 2 * kRoundTrips;
        if (!std::isfinite(o.total) || o.total <= 0.0) {
          r.failures.push_back(label + ": total time not finite and positive");
        }
        if (!(o.err <= kMaxRoundTripErr)) {
          r.failures.push_back(label + ": round-trip error " +
                               std::to_string(o.err) + " > " +
                               std::to_string(kMaxRoundTripErr));
        }
        if (b == fft::Backend::Adcl && fset_->find_by_name(o.winner) < 0) {
          r.failures.push_back(label + ": winner '" + o.winner +
                               "' is not in the function set");
        }
        if (o.decision_iteration > 2 * kRoundTrips) {
          r.failures.push_back(label + ": decision iteration past the loop");
        }
        r.digest += label + "|" + o.winner + "|" + hex_bits(o.total) + "|" +
                    std::to_string(o.decision_iteration) + "|" +
                    hex_bits(o.err) + "\n";
        r.fft_roundtrip_err = std::max(r.fft_roundtrip_err, o.err);
        r.fft_iter_sim_s.insert(r.fft_iter_sim_s.end(), o.iter_sim.begin(),
                                o.iter_sim.end());
        if (b == fft::Backend::LibNBC) {
          libnbc = o.total;
        } else if (libnbc > 0.0) {
          slowdown += o.total / libnbc;
          ++pairs;
          learn += o.learning;
          loop += o.total;
        }
      }
    }
    if (pairs > 0) r.sim_slowdown = slowdown / pairs;
    if (loop > 0.0) r.learning_frac = learn / loop;
    return r;
  }

 private:
  struct Outcome {
    double total = 0.0;     ///< simulated time of the whole loop
    double learning = 0.0;  ///< simulated time until the decision
    double err = 0.0;       ///< worst |inverse(forward(x)) - x| over ranks
    std::string winner;
    int decision_iteration = -1;
    std::vector<double> iter_sim;  ///< rank 0's forward iteration times
  };

  Outcome run_one(fft::Pattern pattern, fft::Backend backend,
                  std::uint64_t seed, SpanLog& spans, std::int64_t parent,
                  std::int64_t scenario, int rep, const std::string& label) {
    trace::Scope scope(label);
    Outcome out;
    std::vector<double> errs(kProcs, 0.0);
    sim::Engine engine(seed);
    net::Machine machine(platforms_.get("whale"));
    mpi::WorldOptions wopts;
    wopts.nprocs = kProcs;
    wopts.seed = seed;
    // Noise off (as in the FFT figure benches): the back-end comparison is
    // systematic, and the seed enters through the input grid.
    wopts.noise_scale = 0.0;
    mpi::World world(engine, machine, wopts);
    world.launch([&](mpi::Ctx& ctx) {
      fft::Fft3dOptions opt;
      opt.n = kN;
      opt.pattern = pattern;
      opt.backend = backend;
      opt.real_math = true;
      opt.tuning.tests_per_function = 2;
      fft::Fft3d kernel(ctx, ctx.world().comm_world(), opt);
      const int me = ctx.world_rank();
      const std::vector<fft::cplx>& original = slabs_[me];
      kernel.set_local_input(original);
      const bool rank0 = me == 0;
      const double t0 = ctx.now();
      int decision = -1;
      for (int it = 0; it < kRoundTrips; ++it) {
        const double s = ctx.now();
        // Only rank 0 records host spans: every rank interleaves on this
        // thread, so rank 0's span covers the whole world's iteration.
        std::optional<Span> span;
        if (rank0) {
          span.emplace(spans, "fft.Fft3d.run_iteration", parent, scenario, rep);
        }
        kernel.run_iteration();
        span.reset();
        if (rank0) out.iter_sim.push_back(ctx.now() - s);
        if (decision < 0 && kernel.selection() != nullptr &&
            kernel.selection()->decided()) {
          decision = 2 * it + 1;
        }
        if (rank0) {
          span.emplace(spans, "fft.Fft3d.run_inverse_iteration", parent,
                       scenario, rep);
        }
        kernel.run_inverse_iteration();
        span.reset();
        if (decision < 0 && kernel.selection() != nullptr &&
            kernel.selection()->decided()) {
          decision = 2 * it + 2;
        }
        double err = 0.0;
        for (std::size_t i = 0; i < original.size(); ++i) {
          err = std::max(err, std::abs(kernel.planes()[i] - original[i]));
        }
        errs[me] = std::max(errs[me], err);
      }
      if (rank0) {
        out.total = ctx.now() - t0;
        out.decision_iteration = decision;
        const adcl::SelectionState* sel = kernel.selection();
        if (sel != nullptr && sel->decided()) {
          out.winner = sel->function_set().function(sel->winner()).name;
          out.learning = sel->decision_time() - t0;
        }
      }
    });
    engine.run();
    out.err = *std::max_element(errs.begin(), errs.end());
    return out;
  }

  static constexpr int kProcs = 8;
  static constexpr int kN = 32;
  static constexpr int kRoundTrips = 8;
  /// Inputs are uniform in [-1, 1]; a correct transform pair returns them
  /// to within a few ulps times log N.
  static constexpr double kMaxRoundTripErr = 1e-9;

  std::uint64_t seed_;
  Platforms platforms_;
  std::shared_ptr<const adcl::FunctionSet> fset_;
  std::vector<std::vector<fft::cplx>> slabs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "verify-sweep") return std::make_unique<VerifySweep>(seed);
  if (name == "pinned-scale") return std::make_unique<PinnedScale>(seed);
  if (name == "lossy-recovery") return std::make_unique<LossyRecovery>(seed);
  if (name == "fft-transpose") return std::make_unique<FftTranspose>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
