// Simulated end system (workstation, supercomputer front-end, or gateway).
//
// A Host owns one or more NICs, a routing table keyed by destination host,
// a serialized CPU charged per packet for protocol processing, and the
// transport demultiplexer.  A host with `set_forwarding(true)` relays
// packets not addressed to it — this is exactly the HiPPI<->ATM IP gateway
// role the testbed gave to the SGI O200 / Sun Ultra 30 / Sun E5000
// workstations (paper, section 2).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "net/cpu.hpp"
#include "net/packet.hpp"
#include "units/units.hpp"

namespace gtw::net {

class Host;

// Attachment point of a host to some L2 technology (ATM, HiPPI).
class Nic {
 public:
  Nic(Host& owner, std::string name, units::Bytes mtu)
      : owner_(&owner), name_(std::move(name)), mtu_(mtu) {}
  virtual ~Nic() = default;

  // Transmit `pkt` toward `next_hop` (the L2 neighbour, which is the final
  // destination when directly attached).
  virtual void transmit(IpPacket pkt, HostId next_hop) = 0;

  units::Bytes mtu() const { return mtu_; }
  const std::string& name() const { return name_; }
  Host& owner() { return *owner_; }

 protected:
  Host* owner_;
  std::string name_;
  units::Bytes mtu_;
};

// Per-host protocol-stack cost model.
struct HostCosts {
  des::SimTime per_packet_send = des::SimTime::microseconds(20);
  des::SimTime per_packet_recv = des::SimTime::microseconds(20);
  double per_byte_send_ns = 2.0;  // ns per payload byte (copy + checksum)
  double per_byte_recv_ns = 2.0;
};

class Host {
 public:
  using PortHandler = std::function<void(const IpPacket&)>;

  Host(des::Scheduler& sched, std::string name, HostId id,
       HostCosts costs = {});

  HostId id() const { return id_; }
  const std::string& name() const { return name_; }
  des::Scheduler& scheduler() { return sched_; }
  CpuResource& cpu() { return cpu_; }
  const HostCosts& costs() const { return costs_; }

  // Routing.
  void add_route(HostId dst, Nic* nic, HostId next_hop);
  void set_default_route(Nic* nic, HostId next_hop);
  // MTU of the NIC a packet to `dst` would leave through (0 if unroutable).
  units::Bytes route_mtu(HostId dst) const;

  void set_forwarding(bool on) { forwarding_ = on; }

  // Take the host down (crash / reboot of a gateway workstation): while
  // down it neither sends, receives, nor forwards — packets it would have
  // handled are silently dropped and counted.  Transport state (TCP
  // connections bound here) survives, as the processes do across a NIC or
  // kernel-route outage.
  void set_up(bool up) { up_ = up; }
  bool up() const { return up_; }
  std::uint64_t outage_drops() const { return outage_drops_; }

  // Transport interface: send one datagram (fragmented at the egress NIC's
  // MTU if needed) after charging send-side CPU cost.
  void send_datagram(IpPacket pkt);
  // Register a receiver for (proto, port).
  void bind(IpProto proto, std::uint16_t port, PortHandler handler);
  void unbind(IpProto proto, std::uint16_t port);

  // Called by NICs on frame arrival.
  void receive_from_nic(IpPacket pkt);

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t packets_forwarded() const { return packets_forwarded_; }
  std::uint64_t unroutable_drops() const { return unroutable_; }
  std::uint64_t next_datagram_id() { return ++datagram_seq_; }

  // Receive-path conservation (check::attach_host).  The historical
  // counters above mix send- and receive-side causes; these split out the
  // NIC-arrival ledger so that, once the scheduler drains,
  //   nic_arrivals == received + forwarded + recv_unroutable + recv_outage.
  std::uint64_t nic_arrivals() const { return nic_arrivals_; }
  std::uint64_t recv_unroutable_drops() const { return recv_unroutable_; }
  std::uint64_t recv_outage_drops() const { return recv_outage_drops_; }
  // Datagrams sitting half-reassembled right now; the 500 ms fragment
  // timeout guarantees this is zero once the scheduler drains.
  std::size_t reassembly_pending() const { return reassembly_.size(); }

 private:
  struct Route {
    Nic* nic = nullptr;
    HostId next_hop = kNoHost;
  };
  struct Reassembly {
    std::uint32_t received_bytes = 0;
    std::uint32_t total_bytes = 0;  // 0 until the last fragment arrives
    IpPacket first;                 // carries ports/payload of the datagram
    des::EventHandle timeout;
    std::uint64_t span = 0;         // open reassembly-wait span (obs)
  };

  const Route* lookup(HostId dst) const;
  void emit(IpPacket pkt, const Route& route);
  void deliver_local(IpPacket pkt);
  void dispatch(const IpPacket& pkt);
  des::SimTime send_cost(const IpPacket& pkt) const;
  des::SimTime recv_cost(const IpPacket& pkt) const;

  des::Scheduler& sched_;
  std::string name_;
  HostId id_;
  HostCosts costs_;
  CpuResource cpu_;

  // Ordered maps (not unordered): host state sits on every packet's path,
  // and the determinism contract bans unspecified iteration order from
  // event-producing code (tools/lint/gtw_lint.py, rule unordered-container).
  std::map<HostId, Route> routes_;
  Route default_route_;
  bool forwarding_ = false;
  bool up_ = true;
  std::uint64_t outage_drops_ = 0;

  std::map<std::pair<std::uint8_t, std::uint16_t>, PortHandler> handlers_;
  std::map<std::uint64_t, Reassembly> reassembly_;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t packets_forwarded_ = 0;
  std::uint64_t unroutable_ = 0;
  std::uint64_t nic_arrivals_ = 0;
  std::uint64_t recv_unroutable_ = 0;
  std::uint64_t recv_outage_drops_ = 0;
  std::uint64_t datagram_seq_ = 0;
};

}  // namespace gtw::net
