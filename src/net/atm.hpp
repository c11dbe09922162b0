// ATM layer: AAL5 adaptation on host NICs, output-queued cell switches, and
// permanent-virtual-circuit provisioning across a switch fabric.
//
// Frames move at AAL5-PDU granularity but with exact cell arithmetic: a PDU
// of N bytes occupies ceil((N+8)/48) cells = that many * 53 bytes of wire
// time (see net/units.hpp).  This keeps event counts per-packet rather than
// per-cell while preserving the cell tax and queueing behaviour that the
// paper's throughput figures reflect.
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

// Output-queued ATM switch (the testbed used Fore ASX-4000s).  Each port
// has an egress Link; routing is per-(ingress port, VC) with VC rewriting.
class AtmSwitch {
 public:
  AtmSwitch(des::Scheduler& sched, std::string name,
            des::SimTime switching_latency = des::SimTime::microseconds(5));

  // Add a port whose egress side transmits with `cfg`; returns the port no.
  int add_port(Link::Config cfg);

  // Feed `port` from `feeder`: each frame it carries is delivered
  // propagation + switching latency after its wire end, straight into the
  // VC lookup and the egress link's submit (the fabric hop rides that one
  // delivery event).
  void connect_ingress(int port, Link& feeder);
  // Connect the egress of `port` to a remote sink.
  void connect_egress(int port, FrameSink remote);

  void add_route(int in_port, std::uint32_t in_vc, int out_port,
                 std::uint32_t out_vc);

  Link& egress_link(int port) { return *ports_.at(port).out; }
  const Link& egress_link(int port) const { return *ports_.at(port).out; }
  const std::string& name() const { return name_; }
  int port_count() const { return static_cast<int>(ports_.size()); }
  std::uint64_t unroutable_drops() const { return unroutable_; }
  // Frame-conservation ledger (check::attach_atm_switch): every frame that
  // entered any ingress port.  At drain, ingress == unroutable + the sum of
  // the egress links' submit attempts — a frame either found its VC route
  // or was counted, never silently vanished in the fabric.
  std::uint64_t ingress_frames() const { return ingress_frames_; }

 private:
  void on_frame(int port, Frame f);

  struct Port {
    std::unique_ptr<Link> out;
  };

  des::Scheduler& sched_;
  std::string name_;
  des::SimTime latency_;
  std::vector<Port> ports_;
  std::map<std::pair<int, std::uint32_t>, std::pair<int, std::uint32_t>> vcs_;
  std::uint64_t unroutable_ = 0;
  std::uint64_t ingress_frames_ = 0;
};

// Host attachment to ATM with Classical-IP (RFC 1577) encapsulation: each IP
// packet becomes one LLC/SNAP-framed AAL5 PDU on the VC provisioned for the
// next-hop host.
class AtmNic : public Nic {
 public:
  AtmNic(des::Scheduler& sched, Host& owner, std::string name,
         Link::Config uplink_cfg, units::Bytes mtu = kMtuAtmDefault);

  void transmit(IpPacket pkt, HostId next_hop) override;

  // Wiring helpers used by the provisioner.
  FrameSink ingress();                       // frames arriving from the fabric
  Link& uplink() { return uplink_; }         // egress toward the fabric
  void map_vc(HostId next_hop, std::uint32_t vc) { vc_map_[next_hop] = vc; }

  // CBR traffic shaping: pace the VC toward `next_hop` to `rate` so it
  // never exceeds its contract — how an ATM network protects a video
  // stream from best-effort cross traffic (and the switches from it).
  void shape_vc(HostId next_hop, units::BitRate rate);

  std::uint64_t no_vc_drops() const { return no_vc_; }

 private:
  struct Shaper {
    units::BitRate rate;
    des::SimTime next_free;
  };

  des::Scheduler& sched_;
  Link uplink_;
  std::map<HostId, std::uint32_t> vc_map_;
  std::map<std::uint32_t, Shaper> shapers_;  // keyed by VC
  std::uint64_t no_vc_ = 0;
};

// Provisioning helper: allocates fresh VC numbers and installs the forward
// and reverse routes for a path  nicA -> swA:portIn ... -> nicB  given as a
// sequence of (switch, ingress port, egress port) hops.  The physical
// connections (who feeds whose ingress) must already be wired.
struct VcHop {
  AtmSwitch* sw;
  int in_port;
  int out_port;
};

class VcAllocator {
 public:
  // Provision both directions between the two NICs; the reverse path uses
  // the mirrored hop list.  Registers next-hop VC mappings on both NICs.
  void provision(AtmNic& a, AtmNic& b, const std::vector<VcHop>& path);

 private:
  std::uint32_t next_vc_ = 32;  // first VCs reserved, as in practice
};

}  // namespace gtw::net
