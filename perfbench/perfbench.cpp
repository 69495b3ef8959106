// nbctune host-performance benchmark program: runs one workload in this
// process and prints its metrics as one JSON object on the last line of
// stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// measures the per-layer metrics: untraced repetitions (host spans only)
// for half the time, then repetitions under trace::Session for the rest.
// Any failed output check or determinism mismatch makes the exit code 1.
// See README.md for every metric's definition.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "calibrate.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace trace = nbctune::trace;
namespace analyze = nbctune::analyze;
using trace::Ctr;

namespace {

/// Set-up is timed in kSetupBlocks blocks, each of at least kSetupReps
/// set-ups and kSetupSeconds and each followed by a calibration call:
/// set-ups of tens of microseconds drift with the host like reps do, and
/// one calibration per block pairs each block with the host's speed.
constexpr int kSetupBlocks = 9;
constexpr int kSetupReps = 21;
constexpr double kSetupSeconds = 0.05;
/// Timed repetitions per phase, at least (more while time remains).
constexpr int kMinReps = 3;
/// The analyzer's critical-path pass costs several microseconds per event
/// at thousands of ranks, so analyze.* time the first traced rep's
/// scenarios in submission order up to this many events (at least one
/// scenario).
constexpr std::uint64_t kAnalyzeEvents = 500000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds <= 0");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, sorted).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Process peak resident set (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

struct CpuTimes {
  double user = 0.0, sys = 0.0;
};
CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

/// Discarding stream buffer: exporters serialize in full, nothing is kept.
class NullBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// Book-keeping shared by every repetition of a run.
struct Tally {
  int attempted = 0;
  /// Failed scenarios, at most one per attempted scenario, plus each
  /// failed check of the traced run (ledger, counters, analyzer, spans).
  int failed = 0;
  std::vector<std::string> failures;
  std::string reference_digest;  // the warm-up rep's

  void add(const RepResult& r, const std::string& what) {
    attempted += r.attempted;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    if (reference_digest.empty()) reference_digest = r.digest;
    if (r.digest == reference_digest) {
      failed += r.failed;
    } else {
      // The digest covers the whole rep, so every scenario of it fails.
      failures.push_back(what + ": determinism digest differs from the "
                                "warm-up run's");
      failed += r.attempted;
    }
  }
  void fail(std::string what) {
    failures.push_back(std::move(what));
    ++failed;
  }
};

struct Timed {
  RepResult result;
  double wall = 0.0;
  double calibration = 0.0;  ///< calibration_rate() right after the rep
};

/// One repetition under a "bench.rep" span.
Timed run_rep(Workload& wl, int threads, SpanLog& spans, int rep) {
  Span span(spans, "bench.rep", -1, -1, rep);
  const auto t0 = std::chrono::steady_clock::now();
  Timed t;
  t.result = wl.run(threads, spans, rep, span.id());
  t.wall = seconds_since(t0);
  return t;
}

/// (name, (value, unit)) in print order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

void print_result(const Tally& tally, const Metrics& metrics) {
  const bool correct = tally.failures.empty();
  for (const std::string& f : tally.failures) {
    std::cerr << "perfbench: FAILED: " << f << "\n";
  }
  for (const auto& [name, vu] : metrics) {
    std::fprintf(stderr, "  %-32s %.6g %s\n", name.c_str(), vu.first,
                 vu.second);
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted) +
         ", \"failed\": " + std::to_string(tally.failed) +
         ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

/// Set-up repetitions (at least kSetupReps and `min_seconds`); returns
/// each one's host seconds.
std::vector<double> time_setups(Workload& wl, SpanLog& spans,
                                double min_seconds) {
  std::vector<double> t;
  double total = 0.0;
  for (int k = 0; k < kSetupReps || total < min_seconds; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    wl.setup(spans, -1 - k);
    t.push_back(seconds_since(t0));
    total += t.back();
  }
  return t;
}

/// Repetitions at the workload's pool size until `seconds` have passed
/// (at least kMinReps).  The first rep number is `rep0`.
std::vector<Timed> timed_phase(Workload& wl, SpanLog& spans, double seconds,
                               int rep0, Tally& tally, const char* what) {
  std::vector<Timed> reps;
  const auto t0 = std::chrono::steady_clock::now();
  while (reps.size() < static_cast<std::size_t>(kMinReps) ||
         seconds_since(t0) < seconds) {
    reps.push_back(run_rep(wl, wl.threads(), spans,
                           rep0 + static_cast<int>(reps.size())));
    reps.back().calibration = calibration_rate(wl.threads());
    tally.add(reps.back().result, what);
  }
  std::vector<double> walls;
  for (const Timed& t : reps) walls.push_back(t.wall);
  std::fprintf(stderr, "perfbench: %s: %zu reps, wall min %.4f median %.4f "
               "max %.4f s\n", what, reps.size(), quantile(walls, 0.0),
               median(walls), quantile(walls, 1.0));
  return reps;
}

/// Median over reps of rank-iterations per wall second.
double rank_iters_per_wall_s(const std::vector<Timed>& reps) {
  std::vector<double> v;
  for (const Timed& t : reps) v.push_back(double(t.result.rank_iters) / t.wall);
  return median(v);
}

double median_calibration(const std::vector<Timed>& reps) {
  std::vector<double> v;
  for (const Timed& t : reps) v.push_back(t.calibration);
  return median(v);
}

/// Median over reps of rank-iterations per reference second: each rep's
/// wall time rescaled by the calibration taken right after it
/// (calibrate.hpp), which tracks the host's speed at that moment.
double rank_iters_per_s(const std::vector<Timed>& reps) {
  std::vector<double> v;
  for (const Timed& t : reps) {
    v.push_back(double(t.result.rank_iters) / t.wall * kReferenceRate /
                t.calibration);
  }
  return median(v);
}

// ------------------------------------------------------------- --trace 0

/// Median over set-up blocks of the block's median set-up time in
/// reference seconds (rescaled by the calibration right after the block).
double setup_seconds(Workload& wl, SpanLog& spans) {
  std::vector<double> walls, refs;
  for (int b = 0; b < kSetupBlocks; ++b) {
    walls.push_back(median(time_setups(wl, spans, kSetupSeconds)));
    refs.push_back(walls.back() * calibration_rate(1) / kReferenceRate);
  }
  std::fprintf(stderr,
               "perfbench: set-up median %.6g s wall, %.6g s reference\n",
               median(walls), median(refs));
  return median(refs);
}

Metrics end_to_end(Workload& wl, const Args& args, Tally& tally) {
  SpanLog spans(false);
  (void)calibration_rate(wl.threads());  // allocate and touch its state
  const double setup_s = setup_seconds(wl, spans);
  // Warm-up at pool size 1: untimed, and the reference digest every
  // timed rep (at the workload's pool size) must reproduce.
  const Timed warm = run_rep(wl, 1, spans, 0);
  tally.add(warm.result, "warm-up");
  const std::vector<Timed> reps =
      timed_phase(wl, spans, args.seconds, 1, tally, "timed rep");
  const RepResult& r = warm.result;
  const double ok_frac =
      1.0 - double(tally.failed) / double(std::max(1, tally.attempted));
  return {
      {"rank_iters_per_s", {rank_iters_per_s(reps), "1/s"}},
      {"setup_s", {setup_s, "s"}},
      {"peak_rss_mb",
       {peak_rss_mb() - double(calibration_resident_bytes()) / (1 << 20),
        "MB"}},
      {"decision_accuracy", {r.decision_accuracy, "ratio"}},
      {"sim_slowdown", {r.sim_slowdown, "ratio"}},
      {"ok_frac", {ok_frac, "ratio"}},
  };
}

// ------------------------------------------------------------- --trace 1

using Counts = std::array<std::uint64_t, static_cast<std::size_t>(Ctr::kCount)>;

std::uint64_t at(const Counts& c, Ctr k) {
  return c[static_cast<std::size_t>(k)];
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Everything a traced repetition leaves in the session, drained.
struct Drained {
  Counts sum{};
  std::uint64_t max_arena = 0;
  std::uint64_t events = 0;
};

Drained drain_session(const std::vector<trace::FinishedTrace>& traces,
                      Tally& tally) {
  Drained d;
  for (const trace::FinishedTrace& t : traces) {
    for (std::size_t i = 0; i < t.counts.size(); ++i) d.sum[i] += t.counts[i];
    d.max_arena = std::max(
        d.max_arena,
        t.counts[static_cast<std::size_t>(Ctr::WorldPeakArenaBytes)]);
    d.events += t.events.size();
    // The G1 ledger: every started NBC operation completed or aborted.
    const auto c = [&](Ctr k) { return t.counts[static_cast<std::size_t>(k)]; };
    if (c(Ctr::NbcOpsStarted) !=
        c(Ctr::NbcOpsCompleted) + c(Ctr::NbcOpsAborted)) {
      tally.fail(t.label + ": G1 ledger broken: started " +
                 std::to_string(c(Ctr::NbcOpsStarted)) + " != completed " +
                 std::to_string(c(Ctr::NbcOpsCompleted)) + " + aborted " +
                 std::to_string(c(Ctr::NbcOpsAborted)));
    }
  }
  return d;
}

/// Host-time figures of the spans of untraced reps [rep_lo, rep_hi).
struct SpanFigures {
  double busy_frac = 0.0, idle_s = 0.0;
  double scenario_p50 = 0.0, scenario_p90 = 0.0;
  double functionset_s = 0.0;
  double fft_iter_host_s = 0.0;
};

SpanFigures span_figures(const std::vector<SpanRecord>& spans, int rep_lo,
                         int rep_hi, int threads) {
  SpanFigures f;
  // Batch: the pool's run_indexed span if the workload uses one, else the
  // rep itself (serial workloads run their scenarios back to back).
  std::map<int, double> batch_wall, rep_wall, task_sum;
  std::vector<double> scenario, fft_iter;
  std::map<int, double> fset_per_setup;
  for (const SpanRecord& s : spans) {
    if (s.rep < 0) {
      if (s.name == "coll.scenario_functionset") {
        fset_per_setup[s.rep] += s.duration();
      }
      continue;
    }
    if (s.rep < rep_lo || s.rep >= rep_hi) continue;
    if (s.name == "bench.rep") rep_wall[s.rep] = s.duration();
    if (s.name == "harness.ScenarioPool.run_indexed") {
      batch_wall[s.rep] = s.duration();
    }
    // Scenario spans: the top-level calls into the harness / the kernel.
    if (s.name == "harness.run_verification" || s.name == "harness.run_fixed" ||
        s.name == "harness.run_adcl" || s.name == "fft.Fft3d") {
      scenario.push_back(s.duration());
      task_sum[s.rep] += s.duration();
    }
    if (s.name == "fft.Fft3d.run_iteration") fft_iter.push_back(s.duration());
  }
  std::vector<double> busy, idle;
  for (const auto& [rep, wall] : rep_wall) {
    const double batch = batch_wall.count(rep) ? batch_wall[rep] : wall;
    const int th = batch_wall.count(rep) ? threads : 1;
    busy.push_back(ratio(task_sum[rep], th * batch));
    idle.push_back(th * batch - task_sum[rep]);
  }
  std::vector<double> fsets;
  for (const auto& [rep, t] : fset_per_setup) fsets.push_back(t);
  f.busy_frac = median(busy);
  f.idle_s = median(idle);
  f.scenario_p50 = quantile(scenario, 0.5);
  f.scenario_p90 = quantile(scenario, 0.9);
  f.functionset_s = median(fsets);
  f.fft_iter_host_s = median(fft_iter);
  return f;
}

Metrics per_layer(Workload& wl, const Args& args, Tally& tally) {
  SpanLog spans(true);
  (void)time_setups(wl, spans, 0.0);
  const Timed warm = run_rep(wl, 1, spans, 0);
  tally.add(warm.result, "warm-up");
  (void)calibration_rate(wl.threads());

  // Untraced half: host spans, rusage and pool gauges.
  const std::uint64_t steals0 = wl.steals();
  const CpuTimes cpu0 = cpu_times();
  const std::vector<Timed> plain =
      timed_phase(wl, spans, args.seconds / 2, 1, tally, "untraced rep");
  const CpuTimes cpu1 = cpu_times();
  const double steals =
      double(wl.steals() - steals0) / double(plain.size());
  const int traced_rep0 = 1 + static_cast<int>(plain.size());

  // Traced half: trace::Session on; every rep's counters must repeat.
  trace::Session::enable();
  trace::Session& session = trace::Session::instance();
  std::vector<Timed> traced;
  Drained first;
  double export_s = 0.0, report_s = 0.0;
  std::uint64_t analyzed_events = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (traced.size() < 2 || seconds_since(t0) < args.seconds / 2) {
    const int rep = traced_rep0 + static_cast<int>(traced.size());
    traced.push_back(run_rep(wl, wl.threads(), spans, rep));
    traced.back().calibration = calibration_rate(wl.threads());
    tally.add(traced.back().result, "traced rep");
    if (traced.size() == 1) {
      NullBuf nb;
      std::ostream null(&nb);
      const double e0 = spans.now();
      {
        Span s(spans, "trace.Session.write_chrome", -1, -1, rep);
        session.write_chrome(null);
      }
      {
        Span s(spans, "trace.Session.write_counters", -1, -1, rep);
        session.write_counters(null);
      }
      export_s = spans.now() - e0;
    }
    std::vector<trace::FinishedTrace> traces = session.drain();
    const Drained d = drain_session(traces, tally);
    if (traced.size() == 1) {
      first = d;
      Span s(spans, "analyze.analyze", -1, -1, rep);
      const double a0 = spans.now();
      std::vector<analyze::ScenarioTrace> in;
      for (const trace::FinishedTrace& t : traces) {
        if (!in.empty() && analyzed_events + t.events.size() > kAnalyzeEvents) {
          break;
        }
        in.push_back(analyze::from_finished(t));
        analyzed_events += t.events.size();
      }
      traces.clear();
      const analyze::Report report = analyze::analyze(in);
      report_s = spans.now() - a0;
      if (report.scenarios.size() != in.size()) {
        tally.fail("analyze: report covers " +
                   std::to_string(report.scenarios.size()) + " of " +
                   std::to_string(in.size()) + " scenarios");
      }
    } else if (d.sum != first.sum) {
      tally.fail("traced rep " + std::to_string(rep) +
                 ": counters differ from the first traced rep");
    }
  }

  const SpanFigures f =
      span_figures(spans.snapshot(), 1, traced_rep0, wl.threads());
  const RepResult& r = warm.result;
  const Counts& c = first.sum;
  // Tracing overhead compares walls in reference seconds: the two phases
  // run at different times, and the host's speed drifts between them.
  std::vector<double> plain_walls, plain_ref, traced_ref;
  for (const Timed& t : plain) {
    plain_walls.push_back(t.wall);
    plain_ref.push_back(t.wall * t.calibration / kReferenceRate);
  }
  for (const Timed& t : traced) {
    traced_ref.push_back(t.wall * t.calibration / kReferenceRate);
  }
  const double plain_wall = median(plain_walls);
  const double events = double(at(c, Ctr::EngineEventsFired));
  const double msgs =
      double(at(c, Ctr::MsgsEager) + at(c, Ctr::MsgsRts) + at(c, Ctr::MsgsCts) +
             at(c, Ctr::MsgsBulkChunks) + at(c, Ctr::MsgsNicBulks));
  const double seen = double(at(c, Ctr::AdclSamplesSeen));
  const auto count = [&](Ctr k) { return double(at(c, k)); };

  if (!args.spans_out.empty() && !spans.write_json(args.spans_out)) {
    tally.fail("cannot write spans to " + args.spans_out);
  }
  return {
      {"bench.rank_iters_per_wall_s", {rank_iters_per_wall_s(plain), "1/s"}},
      {"bench.calibration_events_per_s", {median_calibration(plain), "1/s"}},
      {"harness.pool_busy_frac", {f.busy_frac, "ratio"}},
      {"harness.pool_idle_s", {f.idle_s, "s"}},
      {"harness.pool_steals", {steals, "count"}},
      {"harness.scenario_p50_s", {f.scenario_p50, "s"}},
      {"harness.scenario_p90_s", {f.scenario_p90, "s"}},
      {"sim.fiber_switches", {count(Ctr::FiberSwitches), "count"}},
      {"sim.fibers_created", {count(Ctr::SimFibersCreated), "count"}},
      {"sim.sys_cpu_frac",
       {ratio(cpu1.sys - cpu0.sys,
              (cpu1.user - cpu0.user) + (cpu1.sys - cpu0.sys)),
        "ratio"}},
      {"sim.events", {events, "count"}},
      {"sim.events_scheduled", {count(Ctr::EngineEventsScheduled), "count"}},
      {"sim.now_fifo_frac",
       {ratio(count(Ctr::EngineNowFifoHits), count(Ctr::EngineEventsScheduled)),
        "ratio"}},
      {"sim.host_ns_per_event", {ratio(plain_wall * 1e9, events), "ns"}},
      {"exec.host_ns_per_rank_iter",
       {ratio(plain_wall * 1e9, double(r.rank_iters)), "ns"}},
      {"exec.arena_bytes", {double(first.max_arena), "bytes"}},
      {"coll.schedules_built", {count(Ctr::CollSchedulesBuilt), "count"}},
      {"coll.functionset_build_s", {f.functionset_s, "s"}},
      {"net.bytes_on_wire", {count(Ctr::BytesOnWire), "bytes"}},
      {"mpi.msgs", {msgs, "count"}},
      {"mpi.acks", {count(Ctr::MsgsAcks), "count"}},
      {"mpi.retransmits", {count(Ctr::MsgsRetransmits), "count"}},
      {"mpi.dup_deliveries", {count(Ctr::MsgsDupDeliveries), "count"}},
      {"mpi.useful_msg_frac",
       {msgs > 0 ? 1.0 - (count(Ctr::MsgsRetransmits) +
                          count(Ctr::MsgsDupDeliveries)) / msgs
                 : 0.0,
        "ratio"}},
      {"mpi.send_failures", {count(Ctr::MsgsSendFailures), "count"}},
      {"mpi.rank_deaths", {count(Ctr::MpiRankDeaths), "count"}},
      {"mpi.shrinks", {count(Ctr::MpiShrinks), "count"}},
      {"fault.drops", {count(Ctr::FaultDrops), "count"}},
      {"fault.dups", {count(Ctr::FaultDups), "count"}},
      {"fault.nic_stalls", {count(Ctr::FaultNicStalls), "count"}},
      {"nbc.ops_started", {count(Ctr::NbcOpsStarted), "count"}},
      {"nbc.ops_completed", {count(Ctr::NbcOpsCompleted), "count"}},
      {"nbc.ops_aborted", {count(Ctr::NbcOpsAborted), "count"}},
      {"nbc.rounds_posted", {count(Ctr::NbcRoundsPosted), "count"}},
      {"nbc.fallbacks", {count(Ctr::NbcFallbacks), "count"}},
      {"nbc.rebuilds", {count(Ctr::NbcRebuilds), "count"}},
      {"nbc.progress_passes", {count(Ctr::ProgressPasses), "count"}},
      {"adcl.decisions", {count(Ctr::AdclDecisions), "count"}},
      {"adcl.batches_scored", {count(Ctr::AdclBatchesScored), "count"}},
      {"adcl.samples_kept_frac",
       {seen > 0 ? 1.0 - count(Ctr::AdclSamplesFiltered) / seen : 0.0,
        "ratio"}},
      {"adcl.retunes", {count(Ctr::AdclRetunes), "count"}},
      {"adcl.learning_frac", {r.learning_frac, "ratio"}},
      {"fft.iter_host_s", {f.fft_iter_host_s, "s"}},
      {"fft.iter_sim_s", {median(r.fft_iter_sim_s), "s"}},
      {"fft.roundtrip_err", {r.fft_roundtrip_err, "abs"}},
      {"trace.overhead_frac",
       {ratio(median(traced_ref), median(plain_ref)) - 1.0, "ratio"}},
      {"trace.events_recorded", {double(first.events), "count"}},
      {"trace.export_s", {export_s, "s"}},
      {"analyze.report_s", {report_s, "s"}},
      {"analyze.ns_per_event",
       {ratio(report_s * 1e9, double(analyzed_events)), "ns"}},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n";
    return 2;
  }
  Tally tally;
  Metrics metrics;
  try {
    std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed);
    metrics = args.trace ? per_layer(*wl, args, tally)
                         : end_to_end(*wl, args, tally);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  print_result(tally, metrics);
  return tally.failures.empty() ? 0 : 1;
}
