// Point-to-point semantics of the message-passing layer: matching, order,
// eager vs rendezvous protocols, progress-dependent completion, overlap.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mpi/world.hpp"
#include "net/platform.hpp"
#include "testing_util.hpp"

using namespace nbctune;
using testing_util_alias = void;
namespace t = nbctune::testing;

namespace {
const net::Platform kIb = net::whale();
const net::Platform kTcp = net::whale_tcp();
}  // namespace

TEST(Pt2Pt, EagerMessageDeliversPayload) {
  const std::size_t n = 1024;  // below eager limit
  std::vector<std::byte> got(n);
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      auto data = t::make_pattern(0, n);
      ctx.send(comm, data.data(), n, 1, 7);
    } else {
      ctx.recv(comm, got.data(), n, 0, 7);
    }
  });
  EXPECT_EQ(got, t::make_pattern(0, n));
}

TEST(Pt2Pt, RendezvousMessageDeliversPayload) {
  const std::size_t n = 256 * 1024;  // far above eager limit
  std::vector<std::byte> got(n);
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      auto data = t::make_pattern(0, n);
      ctx.send(comm, data.data(), n, 1, 7);
    } else {
      ctx.recv(comm, got.data(), n, 0, 7);
    }
  });
  EXPECT_EQ(got, t::make_pattern(0, n));
}

TEST(Pt2Pt, RendezvousOverTcpDeliversPayload) {
  const std::size_t n = 300 * 1024;  // several CPU-pushed chunks
  std::vector<std::byte> got(n);
  t::run_world(kTcp, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      auto data = t::make_pattern(0, n);
      ctx.send(comm, data.data(), n, 1, 7);
    } else {
      ctx.recv(comm, got.data(), n, 0, 7);
    }
  });
  EXPECT_EQ(got, t::make_pattern(0, n));
}

TEST(Pt2Pt, IntraNodeRendezvous) {
  // whale has 8 cores per node: ranks 0 and 1 share a node.
  const std::size_t n = 256 * 1024;
  std::vector<std::byte> got(n);
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    ASSERT_EQ(ctx.world().node_of(0), ctx.world().node_of(1));
    if (ctx.world_rank() == 0) {
      auto data = t::make_pattern(0, n);
      ctx.send(comm, data.data(), n, 1, 7);
    } else {
      ctx.recv(comm, got.data(), n, 0, 7);
    }
  });
  EXPECT_EQ(got, t::make_pattern(0, n));
}

TEST(Pt2Pt, ZeroByteMessages) {
  int delivered = 0;
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      ctx.send(comm, nullptr, 0, 1, 3);
    } else {
      ctx.recv(comm, nullptr, 0, 0, 3);
      ++delivered;
    }
  });
  EXPECT_EQ(delivered, 1);
}

TEST(Pt2Pt, SelfSend) {
  std::vector<std::byte> got(64);
  t::run_world(kIb, 1, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    auto data = t::make_pattern(0, 64);
    mpi::Req s = ctx.isend(comm, data.data(), 64, 0, 1);
    mpi::Req r = ctx.irecv(comm, got.data(), 64, 0, 1);
    ctx.wait(r);
    ctx.wait(s);
  });
  EXPECT_EQ(got, t::make_pattern(0, 64));
}

TEST(Pt2Pt, NonOvertakingSameTag) {
  // Two eager messages with the same (src, tag) must match in send order.
  std::vector<int> first(1), second(1);
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      int a = 111, b = 222;
      ctx.send(comm, &a, sizeof a, 1, 5);
      ctx.send(comm, &b, sizeof b, 1, 5);
    } else {
      ctx.recv(comm, first.data(), sizeof(int), 0, 5);
      ctx.recv(comm, second.data(), sizeof(int), 0, 5);
    }
  });
  EXPECT_EQ(first[0], 111);
  EXPECT_EQ(second[0], 222);
}

TEST(Pt2Pt, TagSelectsMessage) {
  int got9 = 0, got4 = 0;
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      int a = 40, b = 90;
      ctx.send(comm, &a, sizeof a, 1, 4);
      ctx.send(comm, &b, sizeof b, 1, 9);
    } else {
      // Receive tag 9 first even though tag 4 was sent first.
      ctx.recv(comm, &got9, sizeof got9, 0, 9);
      ctx.recv(comm, &got4, sizeof got4, 0, 4);
    }
  });
  EXPECT_EQ(got9, 90);
  EXPECT_EQ(got4, 40);
}

TEST(Pt2Pt, AnySourceReceives) {
  std::vector<int> got(2, -1);
  t::run_world(kIb, 3, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() != 0) {
      int v = ctx.world_rank() * 10;
      ctx.send(comm, &v, sizeof v, 0, 1);
    } else {
      mpi::Status st0 = ctx.recv(comm, &got[0], sizeof(int), mpi::kAnySource, 1);
      mpi::Status st1 = ctx.recv(comm, &got[1], sizeof(int), mpi::kAnySource, 1);
      EXPECT_NE(st0.source, st1.source);
    }
  });
  EXPECT_EQ(got[0] + got[1], 30);
}

TEST(Pt2Pt, UnexpectedEagerBufferedUntilRecv) {
  int got = 0;
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      int v = 77;
      ctx.send(comm, &v, sizeof v, 1, 2);
    } else {
      ctx.compute(1.0);  // message arrives long before the recv posts
      ctx.recv(comm, &got, sizeof got, 0, 2);
    }
  });
  EXPECT_EQ(got, 77);
}

// ------------------------------------------------------- matching order
// Posted receives and unexpected messages each form one list, in posting
// and arrival order; a match takes the first matching entry.

TEST(Matching, EarlierPostedReceiveWinsOverLaterWildcard) {
  // Both receives match both messages; the one posted first takes the
  // first message, whichever of the two is the wildcard.
  for (const bool exact_first : {true, false}) {
    int exact = 0, wild = 0;
    t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
      auto comm = ctx.world().comm_world();
      if (ctx.world_rank() == 0) {
        ctx.compute(1e-3);  // both receives are posted by now
        int a = 11, b = 22;
        ctx.send(comm, &a, sizeof a, 1, 3);
        ctx.send(comm, &b, sizeof b, 1, 3);
      } else {
        std::vector<mpi::Req> reqs;
        const auto post_exact = [&] {
          reqs.push_back(ctx.irecv(comm, &exact, sizeof exact, 0, 3));
        };
        const auto post_wild = [&] {
          reqs.push_back(
              ctx.irecv(comm, &wild, sizeof wild, mpi::kAnySource, 3));
        };
        if (exact_first) {
          post_exact();
          post_wild();
        } else {
          post_wild();
          post_exact();
        }
        ctx.wait_all(reqs);
      }
    });
    EXPECT_EQ(exact, exact_first ? 11 : 22) << "exact_first=" << exact_first;
    EXPECT_EQ(wild, exact_first ? 22 : 11) << "exact_first=" << exact_first;
  }
}

TEST(Matching, AnySourceTakesEarliestUnexpectedArrival) {
  // Ranks 3, 1, 2 send in that order; all three messages are unexpected
  // when rank 0 posts, and kAnySource receives take them in arrival order,
  // not in source order.
  std::vector<int> sources;
  t::run_world(kIb, 4, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    const int me = ctx.world_rank();
    if (me == 0) {
      ctx.compute(10e-3);
      for (int i = 0; i < 3; ++i) {
        int v = 0;
        const mpi::Status st =
            ctx.recv(comm, &v, sizeof v, mpi::kAnySource, 6);
        EXPECT_EQ(v, st.source * 100);
        sources.push_back(st.source);
      }
    } else {
      ctx.compute((me == 3 ? 0 : me) * 1e-3 + 1e-4);
      int v = me * 100;
      ctx.send(comm, &v, sizeof v, 0, 6);
    }
  });
  EXPECT_EQ(sources, (std::vector<int>{3, 1, 2}));
}

TEST(Matching, AnyTagTakesEarliestArrivalAmongTags) {
  std::vector<int> tags;
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      for (const int tag : {9, 4, 7}) {
        ctx.send(comm, &tag, sizeof tag, 1, tag);
        ctx.compute(1e-4);
      }
    } else {
      ctx.compute(10e-3);  // all three are unexpected
      for (int i = 0; i < 3; ++i) {
        int v = 0;
        const mpi::Status st = ctx.recv(comm, &v, sizeof v, 0, mpi::kAnyTag);
        EXPECT_EQ(v, st.tag);
        tags.push_back(st.tag);
      }
    }
  });
  EXPECT_EQ(tags, (std::vector<int>{9, 4, 7}));
}

TEST(Matching, CancelInMiddleKeepsPostedOrder) {
  // Four receives that all match; cancelling the second leaves the others
  // to take the three messages in posting order.
  std::vector<int> got(4, 0);
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      ctx.compute(1e-3);
      for (int v : {1, 2, 3}) ctx.send(comm, &v, sizeof v, 1, 5);
    } else {
      std::vector<mpi::Req> reqs;
      reqs.push_back(ctx.irecv(comm, &got[0], sizeof(int), mpi::kAnySource, 5));
      reqs.push_back(ctx.irecv(comm, &got[1], sizeof(int), 0, 5));
      reqs.push_back(ctx.irecv(comm, &got[2], sizeof(int), 0, 5));
      reqs.push_back(ctx.irecv(comm, &got[3], sizeof(int), 0, mpi::kAnyTag));
      ctx.cancel_request(reqs[1]);
      EXPECT_TRUE(reqs[1].null());
      ctx.wait_all(reqs);
    }
  });
  EXPECT_EQ(got, (std::vector<int>{1, 0, 2, 3}));
}

TEST(Pt2Pt, WaitAllCompletesEverything) {
  const int kMsgs = 16;
  std::vector<int> got(kMsgs, 0);
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    std::vector<mpi::Req> reqs;
    if (ctx.world_rank() == 0) {
      std::vector<int> vals(kMsgs);
      for (int i = 0; i < kMsgs; ++i) {
        vals[i] = i * i;
        reqs.push_back(ctx.isend(comm, &vals[i], sizeof(int), 1, i));
      }
      ctx.wait_all(reqs);
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        reqs.push_back(ctx.irecv(comm, &got[i], sizeof(int), 0, i));
      }
      ctx.wait_all(reqs);
    }
  });
  for (int i = 0; i < kMsgs; ++i) EXPECT_EQ(got[i], i * i);
}

TEST(Pt2Pt, StaleHandleThrows) {
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      int v = 5;
      mpi::Req h = ctx.isend(comm, &v, sizeof v, 1, 0);
      ctx.wait(h);               // h is nulled by wait
      EXPECT_TRUE(h.null());
      mpi::Req fake{999, 3};     // never allocated
      EXPECT_THROW(ctx.wait(fake), std::out_of_range);
    } else {
      int v = 0;
      ctx.recv(comm, &v, sizeof v, 0, 0);
    }
  });
}

TEST(Pt2Pt, RecvBufferTooSmallThrows) {
  EXPECT_THROW(
      t::run_world(kIb, 2,
                   [&](mpi::Ctx& ctx) {
                     auto comm = ctx.world().comm_world();
                     if (ctx.world_rank() == 0) {
                       std::vector<std::byte> big(512);
                       ctx.send(comm, big.data(), big.size(), 1, 0);
                     } else {
                       std::vector<std::byte> small(16);
                       ctx.recv(comm, small.data(), small.size(), 0, 0);
                     }
                   }),
      std::length_error);
}

// --------------------------------------------------- timing / semantics

TEST(Pt2Pt, PingPongCostMatchesModel) {
  // One eager round trip, exact (noise off): each direction costs
  // send prep (o_s + copy) + wire (L + bytes*G) + match (o_r + copy).
  const std::size_t n = 1024;
  const auto& p = kIb;
  double elapsed = 0.0;
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    std::vector<std::byte> buf(n);
    // Ranks 0 and 1 share a node on whale; use ranks 0 and 8 instead.
    (void)comm;
    if (ctx.world_rank() == 0) {
      const double t0 = ctx.now();
      ctx.send(comm, buf.data(), n, 1, 0);
      ctx.recv(comm, buf.data(), n, 1, 0);
      elapsed = ctx.now() - t0;
    } else if (ctx.world_rank() == 1) {
      ctx.recv(comm, buf.data(), n, 0, 0);
      ctx.send(comm, buf.data(), n, 0, 0);
    }
  });
  // Intra-node path (same node): one direction is roughly
  // o_s + copy + mem-port + latency + o_r + copy.
  const double copy = n * p.copy_byte_time;
  const double mem = n * p.mem_byte_time;
  const double one_way = p.intra.send_overhead + copy + mem +
                         p.intra.latency + p.intra.recv_overhead + copy;
  EXPECT_GT(elapsed, 2 * one_way * 0.5);
  EXPECT_LT(elapsed, 2 * one_way * 3.0 + 1e-5);
}

TEST(Pt2Pt, RendezvousNeedsReceiverProgress) {
  // The receiver computes for 50 ms without entering the library: the CTS
  // cannot be issued, so the transfer only happens afterwards (almost no
  // overlap).  With progress calls during compute, the transfer overlaps.
  const std::size_t n = 4 * 1024 * 1024;
  const double compute = 0.05;
  auto run = [&](int progress_calls) {
    double recv_done = 0.0;
    t::run_world(kIb, 9, [&](mpi::Ctx& ctx) {
      // Rank 0 (node 0) and rank 8 (node 1): inter-node path.
      auto comm = ctx.world().comm_world();
      std::vector<std::byte> buf(n);
      if (ctx.world_rank() == 0) {
        mpi::Req s = ctx.isend(comm, buf.data(), n, 8, 0);
        for (int i = 0; i < std::max(1, progress_calls); ++i) {
          ctx.compute(compute / std::max(1, progress_calls));
          if (progress_calls > 0) ctx.progress();
        }
        ctx.wait(s);
      } else if (ctx.world_rank() == 8) {
        mpi::Req r = ctx.irecv(comm, buf.data(), n, 0, 0);
        for (int i = 0; i < std::max(1, progress_calls); ++i) {
          ctx.compute(compute / std::max(1, progress_calls));
          if (progress_calls > 0) ctx.progress();
        }
        ctx.wait(r);
        recv_done = ctx.now();
      }
    });
    return recv_done;
  };
  const double no_progress = run(0);
  const double with_progress = run(10);
  const double wire = n * kIb.inter.byte_time;  // ~3 ms
  // Without progress: compute then transfer, serialized.
  EXPECT_GT(no_progress, compute + 0.8 * wire);
  // With progress: transfer overlaps compute almost fully.
  EXPECT_LT(with_progress, compute + 0.5 * wire);
  EXPECT_LT(with_progress, no_progress);
}

TEST(Pt2Pt, EagerProceedsWithoutReceiverProgress) {
  // Eager payloads are NIC-driven: even if the receiver computes, the
  // data is buffered and the post-compute recv is nearly instant.
  const std::size_t n = 2048;
  double recv_cost = 0.0;
  t::run_world(kIb, 9, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    std::vector<std::byte> buf(n);
    if (ctx.world_rank() == 0) {
      ctx.send(comm, buf.data(), n, 8, 0);
    } else if (ctx.world_rank() == 8) {
      ctx.compute(0.01);
      const double t0 = ctx.now();
      ctx.recv(comm, buf.data(), n, 0, 0);
      recv_cost = ctx.now() - t0;
    }
  });
  EXPECT_LT(recv_cost, 50e-6);  // just matching + copy, no wire wait
}

TEST(Pt2Pt, BlockingRendezvousDeadlockDetected) {
  // Classic head-to-head blocking send of rendezvous-sized messages:
  // neither side can post its receive, the simulator reports deadlock.
  const std::size_t n = 1024 * 1024;
  EXPECT_THROW(
      t::run_world(kIb, 2,
                   [&](mpi::Ctx& ctx) {
                     auto comm = ctx.world().comm_world();
                     std::vector<std::byte> buf(n);
                     const int peer = 1 - ctx.world_rank();
                     ctx.send(comm, buf.data(), n, peer, 0);
                     ctx.recv(comm, buf.data(), n, peer, 0);
                   }),
      sim::Engine::DeadlockError);
}

TEST(Pt2Pt, TcpBulkNeedsSenderProgress) {
  // On the TCP platform bulk data is pushed by the sender's CPU: a sender
  // that computes without progressing transfers nothing meanwhile.
  const std::size_t n = 1024 * 1024;
  const double compute = 0.1;
  auto run = [&](int progress_calls) {
    double done = 0.0;
    t::run_world(kTcp, 9, [&](mpi::Ctx& ctx) {
      auto comm = ctx.world().comm_world();
      std::vector<std::byte> buf(n);
      if (ctx.world_rank() == 0) {
        mpi::Req s = ctx.isend(comm, buf.data(), n, 8, 0);
        const int steps = std::max(1, progress_calls);
        for (int i = 0; i < steps; ++i) {
          ctx.compute(compute / steps);
          if (progress_calls > 0) ctx.progress();
        }
        ctx.wait(s);
        done = ctx.now();
      } else if (ctx.world_rank() == 8) {
        mpi::Req r = ctx.irecv(comm, buf.data(), n, 0, 0);
        ctx.wait(r);
      }
    });
    return done;
  };
  const double wire = n * kTcp.inter.byte_time;  // ~9 ms
  const double no_progress = run(0);
  const double many = run(40);
  EXPECT_GT(no_progress, compute + 0.8 * wire);
  EXPECT_LT(many, compute + 0.6 * wire);
}

TEST(Pt2Pt, DeterministicWithNoise) {
  auto run = [&] {
    std::vector<double> times;
    t::run_world(
        kIb, 4,
        [&](mpi::Ctx& ctx) {
          auto comm = ctx.world().comm_world();
          std::vector<std::byte> buf(4096);
          for (int it = 0; it < 20; ++it) {
            ctx.compute(1e-4);
            const int peer = ctx.world_rank() ^ 1;
            mpi::Req r = ctx.irecv(comm, buf.data(), 64, peer, it);
            ctx.send(comm, buf.data(), 64, peer, it);
            ctx.wait(r);
            times.push_back(ctx.now());
          }
        },
        /*noise=*/1.0, /*seed=*/99);
    return times;
  };
  EXPECT_EQ(run(), run());
}
