#include "net/topology.hpp"

#include <ostream>
#include <stdexcept>
#include <utility>

namespace nbctune::net {

const char* level_name(Level l) noexcept {
  switch (l) {
    case Level::Socket: return "socket";
    case Level::Node: return "node";
    case Level::Rack: return "rack";
    case Level::System: return "system";
  }
  return "?";
}

Topology::Topology(Platform p) : p_(std::move(p)) {
  if (p_.nodes <= 0 || p_.cores_per_node <= 0 || p_.nics_per_node <= 0) {
    throw std::invalid_argument("Topology: platform must have nodes/cores/NICs");
  }
  sockets_ = p_.sockets_per_node > 0 ? p_.sockets_per_node : 1;
  if (p_.cores_per_node % sockets_ != 0) {
    throw std::invalid_argument(
        "Topology: sockets_per_node must divide cores_per_node");
  }
  cores_per_socket_ = p_.cores_per_node / sockets_;
  rack_nodes_ = p_.nodes_per_rack > 0 ? p_.nodes_per_rack : p_.nodes;
}

Level Topology::level_between(int node_a, int core_a, int node_b,
                              int core_b) const noexcept {
  if (node_a == node_b) {
    return socket_of_core(core_a) == socket_of_core(core_b) ? Level::Socket
                                                            : Level::Node;
  }
  return rack_of(node_a) == rack_of(node_b) ? Level::Rack : Level::System;
}

const LinkParams& Topology::link(Level l) const noexcept {
  switch (l) {
    case Level::Socket: {
      const LinkParams& s = p_.socket;
      const bool declared = s.latency > 0 || s.byte_time > 0 ||
                            s.send_overhead > 0 || s.recv_overhead > 0;
      return declared ? s : p_.intra;
    }
    case Level::Node: return p_.intra;
    case Level::Rack:
    case Level::System: return p_.inter;
  }
  return p_.inter;
}

std::vector<Stripe> Topology::plan_stripes(std::size_t bytes,
                                           std::size_t min_stripe_bytes) const {
  std::vector<Stripe> out;
  if (bytes == 0) return out;
  std::size_t n = static_cast<std::size_t>(rails());
  if (min_stripe_bytes > 0) {
    const std::size_t worthwhile = bytes / min_stripe_bytes;
    if (worthwhile < n) n = worthwhile;
  }
  if (n < 1) n = 1;
  // Near-equal split: the first (bytes % n) stripes carry one extra byte,
  // so sizes differ by at most one and the sum is exact.
  const std::size_t base = bytes / n;
  const std::size_t extra = bytes % n;
  std::size_t off = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t sz = base + (i < extra ? 1 : 0);
    out.push_back(Stripe{static_cast<int>(i), off, sz});
    off += sz;
  }
  return out;
}

namespace {
void describe_link(std::ostream& os, const char* what, const LinkParams& l) {
  os << "    " << what << ": latency=" << l.latency * 1e6
     << "us byte_time=" << l.byte_time * 1e9 << "ns/B overhead(s/r)="
     << l.send_overhead * 1e6 << "/" << l.recv_overhead * 1e6
     << "us gap=" << l.msg_gap * 1e6 << "us\n";
}
}  // namespace

void describe_platform(std::ostream& os, const Platform& p) {
  const Topology topo(p);
  os << p.name << ": " << p.nodes << " nodes x " << p.cores_per_node
     << " cores (" << p.total_cores() << " ranks max)\n"
     << "    hierarchy: " << topo.sockets_per_node() << " socket(s)/node ("
     << topo.cores_per_socket() << " cores each), " << topo.nodes_per_rack()
     << " node(s)/rack (" << topo.num_racks() << " rack(s))";
  if (p.rack_extra_latency > 0) {
    os << ", +" << p.rack_extra_latency * 1e6 << "us cross-rack";
  }
  os << "\n    rails: " << topo.rails() << " NIC(s)/node, "
     << (p.cpu_driven_bulk ? "CPU-driven bulk" : "NIC-driven bulk")
     << ", eager<=" << p.eager_limit << "B\n";
  describe_link(os, "socket", topo.link(Level::Socket));
  describe_link(os, "node  ", topo.link(Level::Node));
  describe_link(os, "inter ", topo.link(Level::Rack));
  if (p.torus_x > 0) {
    os << "    torus: " << p.torus_x << "x" << p.torus_y << "x" << p.torus_z
       << ", hop_latency=" << p.hop_latency * 1e6 << "us\n";
  }
}

}  // namespace nbctune::net
