// Steady-state heap allocations of the point-to-point message path.
//
// This executable replaces the global operator new/delete with counting
// versions, so it is built on its own and left out of sanitizer builds
// (ASan and TSan own operator new).  Each case runs a fiber-mode
// Ialltoall world for K and for 2K iterations and divides the extra
// allocations by the extra messages: the per-world set-up (fiber stacks,
// request pools, buffers that grow to their high-water mark) cancels out,
// and what remains is what every further message costs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "coll/ialltoall.hpp"
#include "mpi/world.hpp"
#include "nbc/handle.hpp"
#include "net/machine.hpp"
#include "net/platform.hpp"
#include "sim/engine.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Kept out of line: once inlined, GCC pairs the malloc()/free() inside
// with the new/delete expressions at call sites and warns about a
// mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace nbctune;

namespace {

struct Case {
  std::string name;
  net::Platform platform;
  std::size_t block;  ///< bytes per peer
  bool real;          ///< move real payload bytes (else null buffers)
};

// Failure messages name the case instead of dumping its bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

struct Count {
  std::uint64_t allocs = 0;
  std::uint64_t msgs = 0;
};

/// Allocations and messages of one np-16 world running `iters` linear
/// Ialltoalls back to back on every rank.
Count run(const Case& c, int iters) {
  constexpr int kNp = 16;
  const std::uint64_t before = g_allocs.load();
  Count out;
  {
    sim::Engine engine(1);
    net::Machine machine(c.platform);
    mpi::WorldOptions opts;
    opts.nprocs = kNp;
    opts.noise_scale = 0.0;
    mpi::World world(engine, machine, opts);
    world.launch([&](mpi::Ctx& ctx) {
      const int me = ctx.world_rank();
      std::vector<std::byte> sbuf, rbuf;
      if (c.real) {
        sbuf.resize(kNp * c.block);
        rbuf.resize(kNp * c.block);
        for (int j = 0; j < kNp; ++j) {
          for (std::size_t b = 0; b < c.block; ++b) {
            sbuf[j * c.block + b] = static_cast<std::byte>(me * kNp + j);
          }
        }
      }
      nbc::Schedule s = coll::build_ialltoall_linear(
          me, kNp, c.real ? sbuf.data() : nullptr,
          c.real ? rbuf.data() : nullptr, c.block);
      nbc::Handle h(ctx, ctx.world().comm_world(), &s, ctx.alloc_nbc_tag());
      for (int i = 0; i < iters; ++i) {
        h.start();
        h.wait();
      }
      if (c.real) {
        for (int j = 0; j < kNp; ++j) {
          ASSERT_EQ(rbuf[j * c.block + c.block - 1],
                    static_cast<std::byte>(j * kNp + me))
              << "rank " << me << " block " << j;
        }
      }
    });
    engine.run();
    out.msgs = world.total_data_msgs() + world.total_ctrl_msgs();
  }
  out.allocs = g_allocs.load() - before;
  return out;
}

class MessagePathAllocs : public ::testing::TestWithParam<Case> {};

TEST_P(MessagePathAllocs, SteadyStateIsAllocationFree) {
  constexpr int kIters = 20;
  const Case& c = GetParam();
  const Count k = run(c, kIters);
  const Count k2 = run(c, 2 * kIters);
  ASSERT_GT(k2.msgs, k.msgs);
  const double per_msg = static_cast<double>(k2.allocs - k.allocs) /
                         static_cast<double>(k2.msgs - k.msgs);
  RecordProperty("allocs_per_msg", std::to_string(per_msg));
  EXPECT_LT(per_msg, 0.01) << (k2.allocs - k.allocs) << " allocations for "
                           << (k2.msgs - k.msgs) << " extra messages";
}

INSTANTIATE_TEST_SUITE_P(
    Ialltoall, MessagePathAllocs,
    ::testing::Values(
        // Eager, cost model only: no payload bytes exist.
        Case{"whale_eager_null", net::whale(), 1024, false},
        // Eager with real payloads copied through the transport.
        Case{"whale_eager_real", net::whale(), 1024, true},
        // Rendezvous: RTS/CTS handshake plus a NIC-driven bulk.
        Case{"whale_rendezvous", net::whale(), 256 * 1024, false},
        // Rendezvous with a CPU-driven bulk pushed in socket chunks.
        Case{"whale_tcp_bulk", net::whale_tcp(), 128 * 1024, false}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

}  // namespace
