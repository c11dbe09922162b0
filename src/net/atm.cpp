#include "net/atm.hpp"

#include <cassert>
#include <utility>

namespace gtw::net {

AtmSwitch::AtmSwitch(des::Scheduler& sched, std::string name,
                     des::SimTime switching_latency)
    : sched_(sched), name_(std::move(name)), latency_(switching_latency) {}

int AtmSwitch::add_port(Link::Config cfg) {
  const int port = static_cast<int>(ports_.size());
  ports_.push_back(Port{std::make_unique<Link>(
      sched_, name_ + ".port" + std::to_string(port), cfg)});
  return port;
}

void AtmSwitch::connect_ingress(int port, Link& feeder) {
  feeder.set_sink([this, port](Frame f) { on_frame(port, std::move(f)); },
                  latency_);
}

void AtmSwitch::connect_egress(int port, FrameSink remote) {
  ports_.at(port).out->set_sink(std::move(remote));
}

void AtmSwitch::add_route(int in_port, std::uint32_t in_vc, int out_port,
                          std::uint32_t out_vc) {
  vcs_[{in_port, in_vc}] = {out_port, out_vc};
}

void AtmSwitch::on_frame(int port, Frame f) {
  ++ingress_frames_;
  auto it = vcs_.find({port, f.vc});
  if (it == vcs_.end()) {
    ++unroutable_;
    return;
  }
  const auto [out_port, out_vc] = it->second;
  f.vc = out_vc;
  // The frame has just crossed the fabric (cell-level cut-through latency):
  // its delivery into this switch came latency_ after its propagation.
  const des::SimTime entered = sched_.now() - latency_;
  if (f.pkt.ctx.valid())
    sched_.end_span(sched_.begin_span(f.pkt.ctx, des::SpanPhase::kPropagate,
                                      "atm", name_.c_str(), entered));
  ports_.at(out_port).out->relay(std::move(f), entered);
}

AtmNic::AtmNic(des::Scheduler& sched, Host& owner, std::string name,
               Link::Config uplink_cfg, units::Bytes mtu)
    : Nic(owner, std::move(name), mtu), sched_(sched),
      uplink_(sched, name_ + ".up", uplink_cfg) {}

void AtmNic::shape_vc(HostId next_hop, units::BitRate rate) {
  auto it = vc_map_.find(next_hop);
  if (it == vc_map_.end()) return;
  shapers_[it->second] = Shaper{rate, sched_.now()};
}

void AtmNic::transmit(IpPacket pkt, HostId next_hop) {
  auto it = vc_map_.find(next_hop);
  if (it == vc_map_.end()) {
    ++no_vc_;
    return;
  }
  Frame f;
  f.wire_bytes = aal5_wire_bytes(pkt.total_bytes + kLlcSnapBytes);
  f.vc = it->second;
  f.pkt = std::move(pkt);

  auto sh = shapers_.find(it->second);
  if (sh == shapers_.end()) {
    uplink_.submit(std::move(f));
    return;
  }
  // Virtual-scheduling shaper: each PDU is released no earlier than the
  // VC's theoretical cell-emission time.
  Shaper& shaper = sh->second;
  const des::SimTime release = std::max(sched_.now(), shaper.next_free);
  shaper.next_free =
      release + units::transmission_time(units::Bytes{f.wire_bytes}, shaper.rate);
  if (release <= sched_.now()) {
    uplink_.submit(std::move(f));
  } else {
    // CBR shaping delay is queue-wait spent at the NIC, not on the wire.
    if (f.pkt.ctx.valid())
      f.span = sched_.begin_span(f.pkt.ctx, des::SpanPhase::kQueueWait, "atm",
                                 name_.c_str());
    des::TraceScope scope(sched_, f.pkt.ctx);
    sched_.schedule_at(release, [this, f = std::move(f)]() mutable {
      sched_.end_span(f.span);
      f.span = 0;
      uplink_.submit(std::move(f));
    });
  }
}

FrameSink AtmNic::ingress() {
  return [this](Frame f) { owner_->receive_from_nic(std::move(f.pkt)); };
}

void VcAllocator::provision(AtmNic& a, AtmNic& b,
                            const std::vector<VcHop>& path) {
  assert(!path.empty());
  // Forward direction a -> b.
  {
    std::uint32_t vc = next_vc_++;
    a.map_vc(b.owner().id(), vc);
    for (const VcHop& hop : path) {
      const std::uint32_t out_vc = next_vc_++;
      hop.sw->add_route(hop.in_port, vc, hop.out_port, out_vc);
      vc = out_vc;
    }
  }
  // Reverse direction b -> a mirrors the hops.
  {
    std::uint32_t vc = next_vc_++;
    b.map_vc(a.owner().id(), vc);
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      const std::uint32_t out_vc = next_vc_++;
      it->sw->add_route(it->out_port, vc, it->in_port, out_vc);
      vc = out_vc;
    }
  }
}

}  // namespace gtw::net
