// E3 — the Responsive Workbench bandwidth statement of section 4:
//   "the workbench has two projection planes, each of them displays stereo
//    images of 1024x768 true color (24 Bit) pixels.  This means that less
//    than 8 frames/second can be transferred over a 622 Mbit/s ATM network
//    using classical IP."
// Prints the closed-form CLIP/AAL5 arithmetic and the event-driven measured
// rate on the simulated testbed, sweeping the link rate.
#include <cstdio>

#include "net/units.hpp"
#include "testbed/testbed.hpp"
#include "viz/workbench.hpp"

namespace {

using namespace gtw;

void print_e3() {
  viz::WorkbenchFormat fmt;
  std::printf("== E3: workbench frame rate over classical IP ==\n");
  std::printf("frame: %d x %d x %d planes x %s, %.2f MByte/frame\n",
              fmt.width, fmt.height, fmt.planes,
              fmt.stereo ? "stereo" : "mono",
              static_cast<double>(fmt.frame_bytes().count()) / 1e6);

  std::printf("\nclosed-form (fragmentation + LLC/SNAP + AAL5 cell tax):\n");
  for (units::BitRate rate :
       {net::kOc3Line, net::kOc12Line, net::kOc48Line}) {
    std::printf("  %7.0f Mbit/s link: %5.2f frames/s\n", rate.mbps(),
                viz::classical_ip_fps(fmt, rate));
  }
  std::printf("paper: < 8 frames/s at 622 Mbit/s\n");

  std::printf("\nmeasured on the simulated testbed (Onyx2 GMD -> workbench "
              "Jülich over the WAN, TCP, render overlapped):\n");
  for (auto era : {testbed::WanEra::kOc12_1997, testbed::WanEra::kOc48_1998}) {
    testbed::Testbed tb{testbed::TestbedOptions{era}};
    net::TcpConfig tcp;
    tcp.mss = tb.options().atm_mtu - units::Bytes{40};
    tcp.recv_buffer = units::Bytes{1u << 20};
    viz::FrameStreamer streamer(tb.scheduler(), tb.onyx2_gmd(),
                                tb.workbench_juelich(), fmt,
                                viz::RenderModel{}, 40, tcp);
    streamer.start();
    tb.scheduler().run();
    std::printf("  %-10s: %5.2f frames/s (%d frames delivered)\n",
                era == testbed::WanEra::kOc12_1997 ? "OC-12" : "OC-48",
                streamer.achieved_fps(), streamer.frames_delivered());
  }
  std::printf("(on OC-48 the workbench host's 622 Mbit/s ATM adapter is the "
              "remaining bottleneck, as the paper anticipates while waiting "
              "for 622 Mbit/s Onyx2 interfaces)\n\n");
}

}  // namespace

int main() {
  print_e3();
  return 0;
}
