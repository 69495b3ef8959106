#include "harness/utilization.hpp"

#include <algorithm>
#include <iomanip>
#include <string>

#include "harness/table.hpp"

namespace nbctune::harness {

UtilizationReport utilization_report(mpi::World& world, double elapsed) {
  UtilizationReport report;
  report.elapsed = elapsed;
  report.data_messages = world.total_data_msgs();
  report.ctrl_messages = world.total_ctrl_msgs();
  net::Machine& machine = world.machine();
  const auto& p = machine.platform();
  auto add = [&](const sim::Resource& r, const std::string& name) {
    if (r.reservations() == 0) return;
    ResourceUsage u;
    u.name = name;
    u.busy_seconds = r.busy_total();
    u.busy_fraction = elapsed > 0 ? r.busy_total() / elapsed : 0.0;
    u.reservations = r.reservations();
    report.resources.push_back(std::move(u));
  };
  for (int node = 0; node < p.nodes; ++node) {
    const std::string n = std::to_string(node);
    for (int nic = 0; nic < p.nics_per_node; ++nic) {
      const std::string i = std::to_string(nic);
      add(machine.nic_tx(node, nic), "tx:" + n + ":" + i);
      add(machine.nic_rx(node, nic), "rx:" + n + ":" + i);
    }
    add(machine.mem(node), "mem:" + n);
  }
  std::stable_sort(report.resources.begin(), report.resources.end(),
                   [](const ResourceUsage& a, const ResourceUsage& b) {
                     return a.busy_fraction > b.busy_fraction;
                   });
  return report;
}

void print_utilization(const UtilizationReport& report, int top_n,
                       std::ostream& os) {
  os << "utilization over " << Table::num(report.elapsed) << " s ("
     << report.data_messages << " data msgs, " << report.ctrl_messages
     << " ctrl msgs):\n";
  Table t({"resource", "busy[s]", "busy%", "reservations"});
  int shown = 0;
  for (const ResourceUsage& u : report.resources) {
    if (shown++ >= top_n) break;
    t.add_row({u.name, Table::num(u.busy_seconds),
               Table::num(100.0 * u.busy_fraction, 1),
               std::to_string(u.reservations)});
  }
  t.print(os);
}

}  // namespace nbctune::harness
