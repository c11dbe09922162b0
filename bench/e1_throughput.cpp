// E1 — the throughput measurements stated in section 2 of the paper:
//   * HiPPI TCP inside the local Cray complex: > 430 Mbit/s at 64 KB MTU
//   * Cray T3E (Jülich) <-> IBM SP2 (Sankt Augustin): > 260 Mbit/s,
//     limited by the SP2's microchannel I/O, not by the 2.4 Gbit/s WAN.
// Also sweeps the WAN era (B-WiN 155 / OC-12 / OC-48) for the same paths.
#include <cstdio>

#include "net/tcp.hpp"
#include "net/units.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace gtw;

double measure(testbed::Testbed& tb, net::Host& a, net::Host& b,
               units::Bytes mtu, units::Bytes amount = units::Bytes{48u << 20}) {
  net::TcpConfig cfg;
  cfg.mss = mtu - units::Bytes{net::kIpHeaderBytes + net::kTcpHeaderBytes};
  cfg.recv_buffer = units::Bytes{1u << 20};
  return net::run_bulk_transfer(tb.scheduler(), a, b, amount, cfg)
      .goodput.bps();
}

void print_e1() {
  std::printf("== E1: measured TCP throughputs on the testbed ==\n");
  {
    testbed::Testbed tb{testbed::TestbedOptions{}};
    const double local = measure(tb, tb.t3e600(), tb.t3e1200(),
                                 net::kMtuHippi);
    std::printf("local Cray complex, HiPPI, 64KB MTU : %7.1f Mbit/s "
                "(paper: >430)\n", local / 1e6);
  }
  {
    testbed::Testbed tb{testbed::TestbedOptions{}};
    const double wan = measure(tb, tb.t3e600(), tb.sp2(),
                               tb.options().atm_mtu);
    std::printf("T3E -> SP2 across OC-48 WAN         : %7.1f Mbit/s "
                "(paper: >260, SP2 I/O limited)\n", wan / 1e6);
  }
  std::printf("\nWAN-era sweep, T3E -> SP2 (the SP2 bottleneck persists on "
              "every fast WAN):\n");
  for (auto era : {testbed::WanEra::kBWin155, testbed::WanEra::kOc12_1997,
                   testbed::WanEra::kOc48_1998}) {
    testbed::Testbed tb{testbed::TestbedOptions{era}};
    const char* name = era == testbed::WanEra::kBWin155 ? "B-WiN 155"
                       : era == testbed::WanEra::kOc12_1997 ? "OC-12 622"
                                                            : "OC-48 2400";
    const double wan = measure(tb, tb.t3e600(), tb.sp2(),
                               tb.options().atm_mtu);
    std::printf("  %-11s: %7.1f Mbit/s\n", name, wan / 1e6);
  }
  std::printf("\nline stability (paper: 'initial stability problems ... "
              "related to signal attenuation and timing ... have been "
              "solved'):\n");
  for (double ber : {1e-7, 1e-8, 0.0}) {
    testbed::Testbed tb{testbed::TestbedOptions{}};
    // Degrade the WAN fibre in both directions.
    // (Port 0 on each switch is the WAN trunk by construction.)
    const char* label = ber == 0.0 ? "after fix (clean)"
                        : ber == 1e-8 ? "during debug (BER 1e-8)"
                                      : "early testbed (BER 1e-7)";
    // Rebuild with the BER by running the transfer through a custom path is
    // not possible post-construction; instead approximate by injecting the
    // error rate into the switch's WAN egress links.
    tb.set_wan_bit_error_rate(ber);
    const double t = measure(tb, tb.onyx2_juelich(), tb.onyx2_gmd(),
                             tb.options().atm_mtu, units::Bytes{16u << 20});
    std::printf("  %-26s: %7.1f Mbit/s\n", label, t / 1e6);
  }

  std::printf("\nworkstation <-> workstation across the WAN (host-NIC "
              "limited on OC-48):\n");
  for (auto era : {testbed::WanEra::kBWin155, testbed::WanEra::kOc12_1997,
                   testbed::WanEra::kOc48_1998}) {
    testbed::Testbed tb{testbed::TestbedOptions{era}};
    const char* name = era == testbed::WanEra::kBWin155 ? "B-WiN 155"
                       : era == testbed::WanEra::kOc12_1997 ? "OC-12 622"
                                                            : "OC-48 2400";
    const double t = measure(tb, tb.onyx2_juelich(), tb.onyx2_gmd(),
                             tb.options().atm_mtu);
    std::printf("  %-11s: %7.1f Mbit/s\n", name, t / 1e6);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_e1();
  return 0;
}
