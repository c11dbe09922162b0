// HiPPI layer.  The testbed attached its supercomputers over 800 Mbit/s
// HiPPI channels into a local "HiPPI complex" (crossbar switch), with
// workstation IP gateways bridging into ATM.  We model the channel as a
// serializing link with a per-packet connection-setup overhead and the
// crossbar as a switch that forwards on the packet's final destination
// (standing in for HiPPI I-field source routing).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/units.hpp"

namespace gtw::net {

// HiPPI framing overhead per IP packet (FP header + burst alignment).
constexpr std::uint32_t kHippiFramingBytes = 40;

class HippiSwitch {
 public:
  HippiSwitch(des::Scheduler& sched, std::string name,
              des::SimTime crossbar_latency = des::SimTime::microseconds(1));

  int add_port(Link::Config cfg);
  // Feed the crossbar from `feeder`: each frame it carries is delivered
  // propagation + crossbar latency after its wire end, straight into the
  // station lookup and the egress link's submit.
  void connect_ingress(int port, Link& feeder);
  void connect_egress(int port, FrameSink remote);

  // Packets destined to `dst` (or whose next L2 stop is the gateway `dst`)
  // leave through `port`.
  void add_station(HostId dst, int port);

  Link& egress_link(int port) { return *ports_.at(port).out; }
  std::uint64_t unroutable_drops() const { return unroutable_; }

 private:
  void on_frame(Frame f);

  struct Port {
    std::unique_ptr<Link> out;
  };

  des::Scheduler& sched_;
  std::string name_;
  des::SimTime latency_;
  std::vector<Port> ports_;
  std::map<HostId, int> stations_;
  std::uint64_t unroutable_ = 0;
};

class HippiNic : public Nic {
 public:
  HippiNic(des::Scheduler& sched, Host& owner, std::string name,
           des::SimTime propagation = des::SimTime::nanoseconds(200),
           units::Bytes mtu = kMtuHippi,
           des::SimTime connect_overhead = des::SimTime::microseconds(2));

  void transmit(IpPacket pkt, HostId next_hop) override;

  FrameSink ingress();
  Link& uplink() { return uplink_; }

 private:
  Link uplink_;
};

}  // namespace gtw::net
