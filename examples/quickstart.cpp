// Quickstart: build the Gigabit Testbed West, run one TCP bulk transfer
// from the Cray T3E in Jülich to the IBM SP2 in Sankt Augustin, and print
// what the testbed saw.  This touches the three core public APIs: the
// testbed builder, the TCP transport, and the simulation scheduler.
//
//   $ ./quickstart
#include <cstdio>

#include "net/tcp.hpp"
#include "net/units.hpp"
#include "testbed/testbed.hpp"

int main() {
  using namespace gtw;

  // 1. Assemble the June-1999 testbed (Figure 1 of the paper): OC-48 WAN,
  //    HiPPI complexes, ATM attachments, IP gateways.
  testbed::Testbed tb{testbed::TestbedOptions{}};
  std::printf("testbed up: %zu hosts, WAN %.2f Gbit/s over %.0f km\n",
              tb.hosts().size(), tb.wan_rate().gbps(),
              tb.options().distance_km);

  // 2. Transfer 64 MB from the T3E to the SP2 with 64 KB MTU and 1 MB
  //    socket buffers.
  net::TcpConfig cfg;
  cfg.mss = tb.options().atm_mtu -
            units::Bytes{net::kIpHeaderBytes + net::kTcpHeaderBytes};
  cfg.recv_buffer = units::Bytes{1u << 20};
  const auto res = net::run_bulk_transfer(tb.scheduler(), tb.t3e600(),
                                          tb.sp2(), units::Bytes{64u << 20}, cfg);

  // 3. Report.
  std::printf("transferred 64 MB in %s -> %.1f Mbit/s "
              "(paper measured > 260 Mbit/s, SP2 I/O bound)\n",
              res.duration.to_string().c_str(), res.goodput.mbps());
  std::printf("sender: %llu segments, %llu retransmits, srtt %.2f ms\n",
              static_cast<unsigned long long>(res.sender_stats.segments_sent),
              static_cast<unsigned long long>(res.sender_stats.retransmits),
              res.sender_stats.srtt_ms);
  std::printf("path: %llu packets forwarded by gw_o200, %llu by gw_e5000\n",
              static_cast<unsigned long long>(tb.gw_o200().packets_forwarded()),
              static_cast<unsigned long long>(
                  tb.gw_e5000().packets_forwarded()));
  return 0;
}
