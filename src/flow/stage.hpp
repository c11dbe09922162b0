// Typed stage builders for the common node shapes — busy compute, fixed
// delay, synchronous transform, TCP transfer, datagram transfer — plus a
// PeriodicSource that feeds a graph on a fixed cadence (the shape of every
// paper workload: scanner TR, render loop, CBR video, simulation step).
#pragma once

#include <functional>
#include <string>

#include "flow/graph.hpp"
#include "net/datagram.hpp"
#include "net/tcp.hpp"
#include "units/units.hpp"

namespace gtw::flow {

// Occupies a slot for duration(item) of simulated time.
StageConfig compute_stage(std::string name,
                          std::function<des::SimTime(const Item&)> duration,
                          int concurrency = 1);

// Fixed-latency stage (unlimited concurrency by default: pure delay).
StageConfig delay_stage(std::string name, des::SimTime delay,
                        int concurrency = 0);

// Synchronous transform; completes within the current event.
StageConfig inline_stage(std::string name,
                         std::function<void(StageContext, Item&)> fn,
                         int concurrency = 0);

// Ship bytes(item) over a TcpConnection; the item finishes on delivery.
// Records a message to the next stage's lane: send on departure, recv on
// arrival.
StageConfig tcp_transfer_stage(std::string name, net::TcpConnection& conn,
                               int side,
                               std::function<units::Bytes(const Item&)> bytes,
                               int concurrency = 1);

// Fire-and-forget datagram send; completes immediately (loss shows up at
// the receiving socket, not here), so it records only a message send.
// With number_frames the item index rides along as the CBR sequence number.
StageConfig datagram_transfer_stage(
    std::string name, net::DatagramSocket& socket, net::HostId dst,
    std::uint16_t dst_port, std::function<units::Bytes(const Item&)> bytes,
    bool number_frames = true, int concurrency = 0);

// Pushes `count` items into a graph at a fixed interval.  With
// immediate_first the first item is emitted synchronously from start()
// (DistributedTrafficViz-style); otherwise it is scheduled at +0 like
// net::CbrSource, keeping either cadence bit-identical to the original.
class PeriodicSource {
 public:
  struct Config {
    des::SimTime interval;
    int count = 0;  // 0 = unbounded
    bool immediate_first = false;
  };
  using PayloadFn = std::function<std::any(int)>;

  PeriodicSource(StageGraph& graph, Config cfg, PayloadFn payload = nullptr,
                 std::function<void()> on_last = nullptr);

  void start();
  void stop() { timer_.cancel(); }
  int emitted() const { return emitted_; }

 private:
  void tick();

  StageGraph& graph_;
  Config cfg_;
  PayloadFn payload_;
  std::function<void()> on_last_;
  int emitted_ = 0;
  des::EventHandle timer_;
};

}  // namespace gtw::flow
