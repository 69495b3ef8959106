#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr int kEvents = 300000;
constexpr std::size_t kQueued = 65536;
constexpr std::size_t kStateWords = std::size_t(1) << 21;  // 16 MiB

struct Event {
  double t = 0.0;
  std::uint32_t target = 0;
  bool operator>(const Event& o) const noexcept { return t > o.t; }
};

// One kernel's state, allocated once and fully written, so its resident
// size is exact.
struct Kernel {
  std::vector<std::uint64_t> state = std::vector<std::uint64_t>(kStateWords, 1);
  std::vector<Event> heap = std::vector<Event>(kQueued + 1);

  [[nodiscard]] std::size_t bytes() const {
    return state.size() * sizeof(std::uint64_t) + heap.size() * sizeof(Event);
  }

  /// Events per second of one run of the kernel.
  double run() {
    std::vector<std::uint64_t>& s = state;
    std::vector<Event>& q = heap;
    std::uint64_t x = 88172645463325252ULL;  // xorshift64: same work each run
    auto rnd = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    const std::function<void(std::uint32_t)> handlers[] = {
        [&s](std::uint32_t t) { s[t] += 1; },
        [&s](std::uint32_t t) { s[t] ^= s[(t * 7u) % kStateWords]; },
        [&s](std::uint32_t t) { s[t] += s[s[t] % kStateWords] & 1; },
    };
    const std::greater<Event> later;

    const auto t0 = std::chrono::steady_clock::now();
    q.clear();  // keeps the capacity: no allocation below
    for (std::size_t i = 0; i < kQueued; ++i) {
      q.push_back({double(rnd() % 1000000),
                   static_cast<std::uint32_t>(rnd() % kStateWords)});
      std::push_heap(q.begin(), q.end(), later);
    }
    for (int i = 0; i < kEvents; ++i) {
      std::pop_heap(q.begin(), q.end(), later);
      const Event e = q.back();
      q.pop_back();
      handlers[e.target % 3](e.target);
      q.push_back({e.t + double(rnd() % 1000),
                   static_cast<std::uint32_t>(
                       (e.target * 2654435761u + rnd()) % kStateWords)});
      std::push_heap(q.begin(), q.end(), later);
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return kEvents / secs;
  }
};

// Kernels by thread slot, created on first use and kept for the process
// (only the main thread calls in).
std::vector<std::unique_ptr<Kernel>>& kernels() {
  static std::vector<std::unique_ptr<Kernel>> k;
  return k;
}

}  // namespace

double calibration_rate(int threads) {
  auto& k = kernels();
  while (k.size() < static_cast<std::size_t>(threads)) {
    k.push_back(std::make_unique<Kernel>());
  }
  if (threads <= 1) return k[0]->run();
  // One kernel per thread, concurrently, so the rate reflects the host's
  // speed at the parallelism the workload runs at.
  std::vector<double> rates(threads);
  {
    std::vector<std::jthread> others;  // joined at the end of this block
    for (int i = 1; i < threads; ++i) {
      others.emplace_back([&rates, &k, i] { rates[i] = k[i]->run(); });
    }
    rates[0] = k[0]->run();
  }
  double sum = 0.0;
  for (double r : rates) sum += r;
  return sum / threads;
}

std::size_t calibration_resident_bytes() {
  std::size_t n = 0;
  for (const auto& k : kernels()) n += k->bytes();
  return n;
}

}  // namespace perfbench
