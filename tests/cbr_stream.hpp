// Test traffic: a constant-bit-rate datagram stream built the way
// apps::D1VideoSession sends D1 video — a flow::PeriodicSource feeding a
// flow::datagram_transfer_stage.  The first frame leaves at +0, then one
// every `interval`; pair it with a net::CbrSink on the receiving host.
#pragma once

#include <cstdint>

#include "flow/graph.hpp"
#include "flow/stage.hpp"
#include "net/datagram.hpp"
#include "net/host.hpp"
#include "units/units.hpp"

namespace gtw::testutil {

class CbrStream {
 public:
  CbrStream(net::Host& src, std::uint16_t src_port, net::HostId dst,
            std::uint16_t dst_port, units::Bytes frame, des::SimTime interval,
            int frames)
      : socket_(src, src_port),
        graph_(src.scheduler()),
        source_(graph_, {interval, frames, /*immediate_first=*/false}) {
    graph_.add_stage(flow::datagram_transfer_stage(
        "send", socket_, dst, dst_port,
        [frame](const flow::Item&) { return frame; }));
  }

  void start() { source_.start(); }
  std::uint64_t frames_sent() const {
    return static_cast<std::uint64_t>(source_.emitted());
  }

 private:
  net::DatagramSocket socket_;
  flow::StageGraph graph_;
  flow::PeriodicSource source_;
};

}  // namespace gtw::testutil
