// Multimedia project (paper section 3, "Multimedia in a Gigabit-WAN"):
// studio-quality digital video over ATM — "e.g. 270 Mbit/s for an
// uncompressed D1 video stream".  A D1 session is a CBR datagram stream of
// 25 frames/s; the sink reports delivered rate, loss and jitter, which is
// how the GMD's multimedia project judged link quality.
#pragma once

#include <cstdint>
#include <memory>

#include "flow/stage.hpp"
#include "net/datagram.hpp"
#include "net/host.hpp"

namespace gtw::apps {

struct D1VideoConfig {
  units::BitRate rate = units::BitRate::mbps(270.0);  // uncompressed D1
  double fps = 25.0;        // PAL frame cadence
  int frames = 250;         // 10 seconds by default

  units::Bytes frame_bytes() const {
    return units::Bytes{static_cast<std::uint32_t>(rate.bps() / fps / 8.0)};
  }
};

struct D1VideoReport {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_lost = 0;
  units::BitRate offered;
  units::BitRate goodput;
  double jitter_ms = 0.0;   // stddev of frame inter-arrival
  bool feasible = false;    // delivered >= 99% of frames at cadence
};

class D1VideoSession {
 public:
  D1VideoSession(net::Host& source, net::Host& sink, D1VideoConfig cfg,
                 std::uint16_t port_base = 7200);

  void start();
  // Call after the scheduler drained.
  D1VideoReport report() const;

  const flow::MetricsRegistry& metrics() const { return graph_.metrics(); }
  // For failure wiring (net::FaultPlan observers, degraded-mode tests).
  flow::StageGraph& graph() { return graph_; }

 private:
  D1VideoConfig cfg_;
  net::CbrSink sink_;
  des::Scheduler& sched_;
  net::DatagramSocket socket_;
  des::SimTime interval_;
  // The CBR stream is a one-stage flow graph fed at the PAL frame cadence.
  flow::StageGraph graph_;
  flow::PeriodicSource source_;
  des::SimTime started_;
};

}  // namespace gtw::apps
