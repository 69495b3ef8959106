#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), t0_(std::chrono::steady_clock::now()) {}

double SpanLog::now() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

std::int64_t SpanLog::begin(std::string name, std::int64_t parent,
                            std::int64_t scenario, int rep) {
  if (!enabled_) return -1;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{std::move(name), t, -1.0, parent, scenario, rep});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::end(std::int64_t id) {
  if (id < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::vector<SpanRecord> spans = snapshot();
  char buf[160];
  os << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "\"start\": %.9f, \"end\": %.9f, \"parent\": %lld, "
                  "\"scenario\": %lld, \"rep\": %d",
                  s.start, s.end, static_cast<long long>(s.parent),
                  static_cast<long long>(s.scenario), s.rep);
    // Span names are benchmark-chosen identifiers: no JSON escaping needed.
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", " << buf
       << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os.flush());
}

}  // namespace perfbench
