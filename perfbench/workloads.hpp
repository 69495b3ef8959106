#pragma once

// The benchmark's four workloads.  Each drives nbctune's public API from
// outside: harness::run_verification / run_fixed / run_adcl,
// harness::ScenarioPool::run_indexed and fft::Fft3d.  Inputs are made from
// the workload seed only; every seed runs the same code paths (same ops,
// platforms, rank counts, iteration budgets and plans), so throughput is
// comparable across seeds.  See README.md for why each workload exists.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// What one repetition of a workload produced.
struct RepResult {
  /// Σ nprocs × loop iterations over the rep's scenarios (fixed by the
  /// input, so it does not depend on how many events the run takes).
  std::uint64_t rank_iters = 0;
  int attempted = 0;  ///< scenarios run
  int failed = 0;     ///< scenarios with at least one failed check
  std::vector<std::string> failures;  ///< one line per failed check
  /// Winner names, loop-time bits and decision iterations of every
  /// scenario, in submission order.
  std::string digest;
  /// Share of scored ADCL decisions within kCorrectTolerance of the best
  /// fixed run; 1 on workloads that score none.
  double decision_accuracy = 1.0;
  /// Mean over tuned runs of simulated time / reference simulated time;
  /// 1 on workloads with no tuned run.
  double sim_slowdown = 1.0;
  /// Σ learning-phase simulated time / Σ loop time over tuned runs.
  double learning_frac = 0.0;
  /// FFT workload: worst forward+inverse round-trip error, and the
  /// simulated time of each forward iteration (rank 0).
  double fft_roundtrip_err = 0.0;
  std::vector<double> fft_iter_sim_s;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// ScenarioPool size of the timed phase.
  [[nodiscard]] virtual int threads() const { return 1; }
  /// The one-time host work before the first simulated event: platform
  /// and topology construction, fault-plan parsing, the function set of
  /// every scenario.  Rebuilds the state run() uses.
  virtual void setup(SpanLog& spans, int rep) = 0;
  /// One repetition on a pool of `threads` workers.  Spans are recorded
  /// under `rep_span`.
  virtual RepResult run(int threads, SpanLog& spans, int rep,
                        std::int64_t rep_span) = 0;
  /// Cumulative tasks stolen by this workload's pools.
  [[nodiscard]] virtual std::uint64_t steals() const { return 0; }
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
