#pragma once

// The explicit machine hierarchy over a Platform: sockets inside nodes,
// nodes inside racks, and the multi-NIC rails that leave each node.
//
// The Platform struct carries the raw shape (sockets_per_node,
// nodes_per_rack, nics_per_node, per-level LinkParams); a Topology makes
// it queryable — which hierarchy level a message crosses, which rack a
// node sits in, which rail the k-th transfer should ride — and plans
// message striping across rails so a multi-NIC node can inject one large
// message on all of its NICs at once.  Rail selection and stripe planning
// are pure functions of their arguments, which is what keeps multi-rail
// runs byte-deterministic at any thread count.

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "net/platform.hpp"

namespace nbctune::net {

/// Hierarchy levels a message can cross, innermost first.  `System` is a
/// rack-crossing path (pays Platform::rack_extra_latency on top of the
/// inter-node link).
enum class Level { Socket = 0, Node = 1, Rack = 2, System = 3 };

inline constexpr int kNumLevels = 4;

[[nodiscard]] const char* level_name(Level l) noexcept;

/// One stripe of a striped transfer: `bytes` starting at `offset` of the
/// original message, pinned to NIC rail `rail`.
struct Stripe {
  int rail = 0;
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

/// Queryable hierarchy of one Platform, which it holds by value (so a
/// Topology built from a temporary, or copied, never dangles).  Machine
/// owns one and the collective builders consult it through the World.
class Topology {
 public:
  explicit Topology(Platform p);

  [[nodiscard]] const Platform& platform() const noexcept { return p_; }

  [[nodiscard]] int rails() const noexcept { return p_.nics_per_node; }
  [[nodiscard]] int sockets_per_node() const noexcept { return sockets_; }
  [[nodiscard]] int cores_per_socket() const noexcept {
    return cores_per_socket_;
  }
  /// Nodes per rack (the whole machine when the platform declares none).
  [[nodiscard]] int nodes_per_rack() const noexcept { return rack_nodes_; }
  [[nodiscard]] int num_racks() const noexcept {
    return (p_.nodes + rack_nodes_ - 1) / rack_nodes_;
  }

  [[nodiscard]] int rack_of(int node) const noexcept {
    return node / rack_nodes_;
  }
  /// Socket housing a node-local core index (0 .. cores_per_node-1).
  [[nodiscard]] int socket_of_core(int core) const noexcept {
    return core / cores_per_socket_;
  }

  /// The innermost hierarchy level containing both endpoints.
  [[nodiscard]] Level level_between(int node_a, int core_a, int node_b,
                                    int core_b) const noexcept;

  /// Link parameters of one level.  Socket falls back to the node (intra)
  /// link when the platform declares no socket path; System is the
  /// inter-node link (the rack-crossing latency premium is additive and
  /// lives in Machine::latency).
  [[nodiscard]] const LinkParams& link(Level l) const noexcept;

  /// Deterministic round-robin rail for the `seq`-th transfer of a
  /// sequence (a pure function: the caller owns the sequence counter, so
  /// schedules built concurrently on different threads agree).
  [[nodiscard]] int rail_for(int seq) const noexcept {
    const int r = rails();
    return r <= 1 ? 0 : (seq % r + r) % r;
  }

  /// Split a message into at most rails() stripes of near-equal size, one
  /// per rail.  Stripes below `min_stripe_bytes` are not worth their
  /// per-message overhead, so small messages yield fewer (or one) stripes.
  /// Invariants: at least one stripe for bytes > 0, offsets are contiguous
  /// ascending, and the stripe sizes sum to `bytes` exactly.
  [[nodiscard]] std::vector<Stripe> plan_stripes(
      std::size_t bytes, std::size_t min_stripe_bytes = 4096) const;

 private:
  Platform p_;
  int sockets_ = 1;
  int cores_per_socket_ = 1;
  int rack_nodes_ = 1;
};

/// Human-readable parameter dump of one platform (the `--list-platforms`
/// surface): nodes/cores/sockets/NICs, per-level links, torus shape.
void describe_platform(std::ostream& os, const Platform& p);

}  // namespace nbctune::net
