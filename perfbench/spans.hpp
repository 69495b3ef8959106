#pragma once

// Host-time spans recorded by the benchmark around each call it makes
// into a library layer.  A span has a name, a start and an end (host
// seconds since the log was created), the id of the span that caused it
// and the id of the scenario it belongs to.  Spans are kept in memory and
// written out once, when the benchmark ends.
//
// A disabled log records nothing: the untraced run measures end-to-end
// metrics with every span guard reduced to a null check.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = -1.0;   ///< < 0 while the span is still open
  std::int64_t parent = -1;    ///< causing span; -1 = root
  std::int64_t scenario = -1;  ///< scenario index within a rep; -1 = none
  int rep = -1;                ///< repetition the span belongs to
  [[nodiscard]] double duration() const noexcept { return end - start; }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Host seconds since the log was created.
  [[nodiscard]] double now() const noexcept;

  /// Open a span; returns its id (-1 when the log is disabled).  Safe to
  /// call from several threads.
  std::int64_t begin(std::string name, std::int64_t parent,
                     std::int64_t scenario, int rep);
  void end(std::int64_t id);

  /// Snapshot of every span recorded so far.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Write every span as a JSON array of objects; returns false on an
  /// I/O error.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(SpanLog& log, std::string name, std::int64_t parent,
       std::int64_t scenario, int rep)
      : log_(log), id_(log.begin(std::move(name), parent, scenario, rep)) {}
  ~Span() { log_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::int64_t id_;
};

}  // namespace perfbench
