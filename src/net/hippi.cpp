#include "net/hippi.hpp"

#include <utility>

namespace gtw::net {

HippiSwitch::HippiSwitch(des::Scheduler& sched, std::string name,
                         des::SimTime crossbar_latency)
    : sched_(sched), name_(std::move(name)), latency_(crossbar_latency) {}

int HippiSwitch::add_port(Link::Config cfg) {
  const int port = static_cast<int>(ports_.size());
  ports_.push_back(Port{std::make_unique<Link>(
      sched_, name_ + ".port" + std::to_string(port), cfg)});
  return port;
}

void HippiSwitch::connect_ingress(int, Link& feeder) {
  feeder.set_sink([this](Frame f) { on_frame(std::move(f)); }, latency_);
}

void HippiSwitch::connect_egress(int port, FrameSink remote) {
  ports_.at(port).out->set_sink(std::move(remote));
}

void HippiSwitch::add_station(HostId dst, int port) { stations_[dst] = port; }

void HippiSwitch::on_frame(Frame f) {
  // Forward on the frame's L2 next stop (stands in for the HiPPI I-field);
  // the kNoHost key acts as the default port.
  auto it = stations_.find(f.l2_dst);
  if (it == stations_.end()) it = stations_.find(kNoHost);
  if (it == stations_.end()) {
    ++unroutable_;
    return;
  }
  ports_.at(it->second).out->relay(std::move(f), sched_.now() - latency_);
}

HippiNic::HippiNic(des::Scheduler& sched, Host& owner, std::string name,
                   des::SimTime propagation, units::Bytes mtu,
                   des::SimTime connect_overhead)
    : Nic(owner, std::move(name), mtu),
      uplink_(sched, name_ + ".up",
              Link::Config{kHippiRate, propagation, units::Bytes{4u << 20},
                           connect_overhead}) {}

void HippiNic::transmit(IpPacket pkt, HostId next_hop) {
  Frame f;
  f.wire_bytes = pkt.total_bytes + kHippiFramingBytes;
  f.l2_dst = next_hop;
  f.pkt = std::move(pkt);
  uplink_.submit(std::move(f));
}

FrameSink HippiNic::ingress() {
  return [this](Frame f) { owner_->receive_from_nic(std::move(f.pkt)); };
}

}  // namespace gtw::net
