// F1 — Figure 1 of the paper: "Configuration of the Gigabit Testbed West in
// June 1999.  Jülich and Sankt Augustin are connected via a 2.4 Gbit/s ATM
// link.  The supercomputers are attached to the testbed via HiPPI-ATM
// gateways, several workstations via 622 or 155 Mbit/s ATM interfaces."
// Prints the assembled topology as an attachment table plus a full
// reachability / path-latency audit between all host pairs.
#include <cstdio>

#include "net/units.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace gtw;

void print_fig1() {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  std::printf("== Figure 1: Gigabit Testbed West configuration (June 1999) "
              "==\n");
  std::printf("WAN: Jülich <-> Sankt Augustin, %.0f km, %.2f Gbit/s SDH/ATM "
              "(OC-48)\n\n", tb.options().distance_km,
              tb.wan_rate().bps() / 1e9);
  std::printf("%-18s | %-14s | %10s\n", "host", "site/fabric",
              "attach rate");
  struct Row {
    const char* name;
    const char* fabric;
  };
  const Row rows[] = {
      {"t3e600", "Jülich HiPPI"},     {"t3e1200", "Jülich HiPPI"},
      {"t90", "Jülich HiPPI"},        {"gw_o200", "Jülich HiPPI+ATM"},
      {"gw_ultra30", "Jülich HiPPI+ATM"}, {"scanner_frontend", "Jülich ATM"},
      {"onyx2_juelich", "Jülich ATM"},    {"workbench_juelich", "Jülich ATM"},
      {"sp2", "GMD HiPPI"},           {"gw_e5000", "GMD HiPPI+ATM"},
      {"onyx2_gmd", "GMD ATM"},       {"e500", "GMD ATM"}};
  for (const Row& r : rows) {
    std::printf("%-18s | %-14s | %7.0f Mbit/s\n", r.name, r.fabric,
                tb.attachment_rate(r.name).bps() / 1e6);
  }

  std::printf("\nreachability / one-way small-packet latency audit:\n");
  int pairs = 0, reached = 0;
  double worst_us = 0.0;
  std::string worst_pair;
  for (const auto& [sname, src] : tb.hosts()) {
    for (const auto& [dname, dst] : tb.hosts()) {
      if (src == dst) continue;
      ++pairs;
      bool got = false;
      const des::SimTime t0 = tb.scheduler().now();
      des::SimTime t1 = t0;
      dst->bind(net::IpProto::kUdp, 60, [&](const net::IpPacket&) {
        got = true;
        t1 = tb.scheduler().now();
      });
      net::IpPacket pkt;
      pkt.dst = dst->id();
      pkt.proto = net::IpProto::kUdp;
      pkt.dst_port = 60;
      pkt.total_bytes = 512;
      src->send_datagram(std::move(pkt));
      tb.scheduler().run();
      dst->unbind(net::IpProto::kUdp, 60);
      if (got) {
        ++reached;
        const double us = (t1 - t0).us();
        if (us > worst_us) {
          worst_us = us;
          worst_pair = sname + " -> " + dname;
        }
      }
    }
  }
  std::printf("  %d/%d ordered pairs reachable; slowest path %s at %.0f us\n",
              reached, pairs, worst_pair.c_str(), worst_us);
  std::printf("  gateway forwards: gw_o200=%llu gw_ultra30=%llu "
              "gw_e5000=%llu\n\n",
              static_cast<unsigned long long>(tb.gw_o200().packets_forwarded()),
              static_cast<unsigned long long>(
                  tb.gw_ultra30().packets_forwarded()),
              static_cast<unsigned long long>(
                  tb.gw_e5000().packets_forwarded()));
}

}  // namespace

int main() {
  print_fig1();
  return 0;
}
