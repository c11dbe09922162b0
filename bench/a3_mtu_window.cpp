// A3 — ablation: MTU and socket-buffer sensitivity of TCP over the testbed.
// Section 2 of the paper stresses exactly this: HiPPI needs large transfer
// blocks, "even with TCP/IP communication, transfer rates of more than
// 430 Mbit/s are achieved ... when an MTU of 64 KByte is used", and the
// Fore adapters' large-MTU support is what makes 64 KB packets possible
// "throughout the network".
#include <cstdio>

#include "net/tcp.hpp"
#include "net/units.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace gtw;

double throughput(net::Host& a, net::Host& b, testbed::Testbed& tb,
                  units::Bytes mtu, units::Bytes window) {
  net::TcpConfig cfg;
  cfg.mss = mtu - units::Bytes{net::kIpHeaderBytes + net::kTcpHeaderBytes};
  cfg.recv_buffer = window;
  return net::run_bulk_transfer(tb.scheduler(), a, b,
                                units::Bytes{32u << 20}, cfg)
      .goodput.bps();
}

void print_a3() {
  std::printf("== A3: MTU sweep, local Cray complex (HiPPI TCP) ==\n");
  std::printf("%8s | %12s\n", "MTU", "goodput");
  for (std::uint32_t mtu : {1500u, 4352u, 9180u, 32768u, 65280u}) {
    testbed::Testbed tb{testbed::TestbedOptions{}};
    std::printf("%8u | %8.1f Mbit/s\n", mtu,
                throughput(tb.t3e600(), tb.t3e1200(), tb, units::Bytes{mtu},
                           units::Bytes{1u << 20}) /
                    1e6);
  }
  std::printf("paper: >430 Mbit/s at 64 KB; small MTUs collapse under the "
              "per-packet protocol cost\n");

  std::printf("\n== A3: MTU sweep, T3E -> SP2 across the OC-48 WAN ==\n");
  std::printf("%8s | %12s\n", "MTU", "goodput");
  for (std::uint32_t mtu : {1500u, 9180u, 65280u}) {
    testbed::Testbed tb{testbed::TestbedOptions{}};
    std::printf("%8u | %8.1f Mbit/s\n", mtu,
                throughput(tb.t3e600(), tb.sp2(), tb, units::Bytes{mtu},
                           units::Bytes{1u << 20}) /
                    1e6);
  }

  std::printf("\n== A3: socket-buffer sweep, workstation pair across the "
              "WAN (RTT ~1.1 ms) ==\n");
  std::printf("%10s | %12s\n", "window", "goodput");
  for (std::uint64_t win : {64u << 10, 128u << 10, 256u << 10, 512u << 10,
                            1u << 20}) {
    testbed::Testbed tb{testbed::TestbedOptions{}};
    std::printf("%7llu KB | %8.1f Mbit/s\n",
                static_cast<unsigned long long>(win >> 10),
                throughput(tb.onyx2_juelich(), tb.onyx2_gmd(), tb,
                           tb.options().atm_mtu, units::Bytes{win}) /
                    1e6);
  }
  std::printf("(window/RTT caps throughput until the window covers the "
              "bandwidth-delay product)\n\n");
}

}  // namespace

int main() {
  print_a3();
  return 0;
}
