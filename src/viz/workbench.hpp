// Responsive Workbench remote display over the testbed.
//
// The paper: "the workbench has two projection planes, each of them
// displays stereo images of 1024x768 true color (24 Bit) pixels.  This
// means that less than 8 frames/second can be transferred over a
// 622 Mbit/s ATM network using classical IP."  This module provides both
// the closed-form arithmetic behind that sentence (frame bytes through
// CLIP/AAL5 fragmentation) and an event-driven frame streamer that measures
// the achieved rate on the simulated network, plus the Onyx 2 render-cost
// model that the planned AVOCADO remote-display extension must overlap with.
#pragma once

#include <cstdint>

#include "des/scheduler.hpp"
#include "des/stats.hpp"
#include "flow/graph.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"

namespace gtw::viz {

struct WorkbenchFormat {
  int width = 1024;
  int height = 768;
  int planes = 2;          // two projection planes
  bool stereo = true;      // two eyes per plane
  int bytes_per_pixel = 3; // 24-bit true colour

  units::Bytes frame_bytes() const {
    return units::Bytes{static_cast<std::uint64_t>(width) * height *
                        bytes_per_pixel * planes * (stereo ? 2 : 1)};
  }
};

// Frames-per-second achievable for `fmt` over a link of `link_rate` with
// classical IP over ATM: the frame is fragmented into MTU-sized IP
// packets, each LLC/SNAP + AAL5 framed into 53-byte cells.
double classical_ip_fps(const WorkbenchFormat& fmt, units::BitRate link_rate,
                        units::Bytes mtu = net::kMtuAtmDefault);

// Rendering cost on the visualization server (12-processor Onyx 2 class):
// time to produce one workbench frame.
struct RenderModel {
  double seconds_per_mpixel = 0.010;  // textured volume-slice rendering
  int processors = 12;

  des::SimTime frame_time(const WorkbenchFormat& fmt) const {
    const double mpix = static_cast<double>(fmt.frame_bytes().count()) /
                        fmt.bytes_per_pixel / 1e6;
    return des::SimTime::seconds(seconds_per_mpixel * mpix / processors);
  }
};

// Streams rendered frames from `src` (the Onyx 2) to `dst` (the workbench
// frame buffer) over TCP, render and transfer overlapped (a two-stage flow
// graph: single render slot double-buffered against the uplink); reports
// the sustained frame rate.
class FrameStreamer {
 public:
  FrameStreamer(des::Scheduler& sched, net::Host& src, net::Host& dst,
                WorkbenchFormat fmt, RenderModel render, int frame_count,
                net::TcpConfig tcp = {});

  void start();

  int frames_delivered() const { return delivered_; }
  double achieved_fps() const;
  const des::RunningStats& frame_interval_ms() const { return intervals_; }

  const flow::MetricsRegistry& metrics() const { return graph_.metrics(); }

 private:
  des::Scheduler& sched_;
  WorkbenchFormat fmt_;
  RenderModel render_;
  int frame_count_;
  net::TcpConnection conn_;
  flow::StageGraph graph_;
  int delivered_ = 0;
  bool first_ = true;
  des::SimTime first_delivery_;
  des::SimTime last_delivery_;
  des::RunningStats intervals_;
};

}  // namespace gtw::viz
