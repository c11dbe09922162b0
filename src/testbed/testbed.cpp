#include "testbed/testbed.hpp"

#include <stdexcept>

#include "net/units.hpp"

namespace gtw::testbed {

namespace {

// Protocol-stack cost models per platform, calibrated against the paper's
// measured throughputs (section 2):
//  - Cray HiPPI TCP: >430 Mbit/s locally with 64 KByte MTU -> per-segment
//    cost ~1.1 ms at 64 KB, strongly per-packet-bound at small MTU;
//  - SP2: > 260 Mbit/s end-to-end, "mainly due to the limitations of the
//    I/O-system of the microchannel-based SP-nodes"; these costs cap it
//    near 31 MByte/s, 247.6 Mbit/s T3E -> SP2 (EXPERIMENTS.md E1);
//  - gateway workstations forward at ~1 Gbit/s, fast enough not to be the
//    bottleneck on any measured path.
net::HostCosts cray_costs() {
  return {des::SimTime::microseconds(60), des::SimTime::microseconds(60),
          16.0, 16.0};
}
net::HostCosts sp2_costs() {
  return {des::SimTime::microseconds(40), des::SimTime::microseconds(40),
          30.0, 30.0};
}
net::HostCosts gateway_costs() {
  return {des::SimTime::microseconds(20), des::SimTime::microseconds(20),
          4.0, 4.0};
}
net::HostCosts workstation_costs() {
  return {des::SimTime::microseconds(20), des::SimTime::microseconds(20),
          3.0, 3.0};
}

constexpr des::SimTime kLocalProp = des::SimTime::microseconds(1);

}  // namespace

units::BitRate Testbed::wan_rate() const {
  switch (opts_.era) {
    case WanEra::kBWin155:
      return net::kOc3Line * net::kSdhPayloadFraction;
    case WanEra::kOc12_1997:
      return net::kOc12Line * net::kSdhPayloadFraction;
    case WanEra::kOc48_1998:
      return net::kOc48Line * net::kSdhPayloadFraction;
  }
  return units::BitRate::bps(0.0);
}

des::SimTime Testbed::wan_rtt() const {
  return des::SimTime::seconds(2.0 * opts_.distance_km *
                               net::kFiberDelaySecPerKm);
}

net::Host* Testbed::add_host(const std::string& name, net::HostCosts costs) {
  const net::HostId id = static_cast<net::HostId>(host_store_.size() + 1);
  host_store_.push_back(std::make_unique<net::Host>(sched_, name, id, costs));
  net::Host* h = host_store_.back().get();
  by_name_[name] = h;
  return h;
}

net::AtmNic* Testbed::attach_atm(net::Host& h, net::AtmSwitch& sw,
                                 units::BitRate rate) {
  const units::BitRate usable = rate * net::kSdhPayloadFraction;
  const net::Link::Config link{usable, kLocalProp, opts_.switch_buffer,
                               des::SimTime::zero()};
  atm_nics_.push_back(std::make_unique<net::AtmNic>(
      sched_, h, h.name() + ".atm", link, opts_.atm_mtu));
  net::AtmNic* nic = atm_nics_.back().get();
  const int port = sw.add_port(link);
  sw.connect_ingress(port, nic->uplink());
  sw.connect_egress(port, nic->ingress());
  atm_attached_.push_back({nic, &sw, port, &sw == atm_j_.get()});
  attach_rate_[h.name()] = rate;
  return nic;
}

Testbed::Testbed(TestbedOptions opts) : opts_(opts) {
  atm_j_ = std::make_unique<net::AtmSwitch>(sched_, "asx4000-juelich");
  atm_g_ = std::make_unique<net::AtmSwitch>(sched_, "asx4000-gmd");
  hippi_j_ = std::make_unique<net::HippiSwitch>(sched_, "hippi-juelich");

  // --- hosts -------------------------------------------------------------
  t3e600_ = add_host("t3e600", cray_costs());
  t3e1200_ = add_host("t3e1200", cray_costs());
  t90_ = add_host("t90", cray_costs());
  gw_o200_ = add_host("gw_o200", gateway_costs());
  gw_ultra30_ = add_host("gw_ultra30", gateway_costs());
  scanner_fe_ = add_host("scanner_frontend", workstation_costs());
  onyx2_j_ = add_host("onyx2_juelich", workstation_costs());
  workbench_j_ = add_host("workbench_juelich", workstation_costs());
  sp2_ = add_host("sp2", sp2_costs());
  gw_e5000_ = add_host("gw_e5000", gateway_costs());
  onyx2_gmd_ = add_host("onyx2_gmd", workstation_costs());
  e500_ = add_host("e500", workstation_costs());

  gw_o200_->set_forwarding(true);
  gw_ultra30_->set_forwarding(true);
  gw_e5000_->set_forwarding(true);

  // --- WAN: two ASX-4000s joined by the SDH line --------------------------
  const des::SimTime wan_prop =
      des::SimTime::seconds(opts_.distance_km * net::kFiberDelaySecPerKm);
  const net::Link::Config wan_link{wan_rate(), wan_prop,
                                   opts_.switch_buffer, des::SimTime::zero()};
  wan_port_j_ = atm_j_->add_port(wan_link);
  wan_port_g_ = atm_g_->add_port(wan_link);
  atm_g_->connect_ingress(wan_port_g_, atm_j_->egress_link(wan_port_j_));
  atm_j_->connect_ingress(wan_port_j_, atm_g_->egress_link(wan_port_g_));

  // --- ATM attachments (622 or 155 Mbit/s adapters, Figure 1) -------------
  net::AtmNic* atm_o200 = attach_atm(*gw_o200_, *atm_j_, net::kOc12Line);
  net::AtmNic* atm_u30 = attach_atm(*gw_ultra30_, *atm_j_, net::kOc12Line);
  net::AtmNic* atm_scan = attach_atm(*scanner_fe_, *atm_j_, net::kOc3Line);
  net::AtmNic* atm_onyx_j = attach_atm(*onyx2_j_, *atm_j_, net::kOc12Line);
  net::AtmNic* atm_wb = attach_atm(*workbench_j_, *atm_j_, net::kOc12Line);
  net::AtmNic* atm_e5000 = attach_atm(*gw_e5000_, *atm_g_, net::kOc12Line);
  net::AtmNic* atm_onyx_g = attach_atm(*onyx2_gmd_, *atm_g_, net::kOc12Line);
  net::AtmNic* atm_e500 = attach_atm(*e500_, *atm_g_, net::kOc12Line);

  // --- HiPPI complex in Jülich --------------------------------------------
  auto add_hippi = [&](net::Host& h) {
    hippi_nics_.push_back(
        std::make_unique<net::HippiNic>(sched_, h, h.name() + ".hippi"));
    net::HippiNic* nic = hippi_nics_.back().get();
    const net::Link::Config port_cfg{net::kHippiRate, kLocalProp,
                                     units::Bytes{4u << 20},
                                     des::SimTime::zero()};
    const int port = hippi_j_->add_port(port_cfg);
    hippi_j_->connect_ingress(port, nic->uplink());
    hippi_j_->connect_egress(port, nic->ingress());
    hippi_j_->add_station(h.id(), port);
    if (attach_rate_.find(h.name()) == attach_rate_.end())
      attach_rate_[h.name()] = net::kHippiRate;
    return nic;
  };
  net::HippiNic* hip_t3e600 = add_hippi(*t3e600_);
  net::HippiNic* hip_t3e1200 = add_hippi(*t3e1200_);
  net::HippiNic* hip_t90 = add_hippi(*t90_);
  net::HippiNic* hip_o200 = add_hippi(*gw_o200_);
  net::HippiNic* hip_u30 = add_hippi(*gw_ultra30_);

  // --- SP2 <-> E5000 gateway: direct HiPPI channel ------------------------
  hippi_nics_.push_back(
      std::make_unique<net::HippiNic>(sched_, *sp2_, "sp2.hippi"));
  net::HippiNic* hip_sp2 = hippi_nics_.back().get();
  hippi_nics_.push_back(
      std::make_unique<net::HippiNic>(sched_, *gw_e5000_, "gw_e5000.hippi"));
  net::HippiNic* hip_e5000 = hippi_nics_.back().get();
  hip_sp2->uplink().set_sink(hip_e5000->ingress());
  hip_e5000->uplink().set_sink(hip_sp2->ingress());
  attach_rate_["sp2"] = net::kHippiRate;

  // --- VCs: provision every ATM host pair (PVC mesh, as a 1999 testbed
  // with a handful of hosts would) -----------------------------------------
  for (std::size_t i = 0; i < atm_attached_.size(); ++i) {
    for (std::size_t j = i + 1; j < atm_attached_.size(); ++j) {
      const AtmAttachment& a = atm_attached_[i];
      const AtmAttachment& b = atm_attached_[j];
      if (a.juelich == b.juelich) {
        vcs_.provision(*a.nic, *b.nic, {{a.sw, a.port, b.port}});
      } else {
        const AtmAttachment& jl = a.juelich ? a : b;
        const AtmAttachment& gm = a.juelich ? b : a;
        vcs_.provision(*jl.nic, *gm.nic,
                       {{atm_j_.get(), jl.port, wan_port_j_},
                        {atm_g_.get(), wan_port_g_, gm.port}});
      }
    }
  }

  // --- routing -------------------------------------------------------------
  const std::vector<std::pair<net::Host*, net::AtmNic*>> atm_hosts = {
      {gw_o200_, atm_o200},   {gw_ultra30_, atm_u30}, {scanner_fe_, atm_scan},
      {onyx2_j_, atm_onyx_j}, {workbench_j_, atm_wb}, {gw_e5000_, atm_e5000},
      {onyx2_gmd_, atm_onyx_g}, {e500_, atm_e500}};
  const std::vector<std::pair<net::Host*, net::HippiNic*>> hippi_local = {
      {t3e600_, hip_t3e600}, {t3e1200_, hip_t3e1200}, {t90_, hip_t90}};

  // ATM-attached hosts reach each other directly; HiPPI hosts in Jülich are
  // reached via the O200 gateway; the SP2 via the E5000 gateway.
  for (const auto& [h, nic] : atm_hosts) {
    for (const auto& [peer, pnic] : atm_hosts) {
      (void)pnic;
      if (peer != h) h->add_route(peer->id(), nic, peer->id());
    }
    if (h != gw_o200_ && h != gw_ultra30_)
      for (const auto& [cray, cnic] : hippi_local) {
        (void)cnic;
        h->add_route(cray->id(), nic, gw_o200_->id());
      }
    if (h != gw_e5000_) h->add_route(sp2_->id(), nic, gw_e5000_->id());
  }

  // Jülich HiPPI hosts: local complex direct, everything else via O200.
  for (const auto& [h, nic] : hippi_local) {
    for (const auto& [peer, pnic] : hippi_local) {
      (void)pnic;
      if (peer != h) h->add_route(peer->id(), nic, peer->id());
    }
    h->add_route(gw_o200_->id(), nic, gw_o200_->id());
    h->add_route(gw_ultra30_->id(), nic, gw_ultra30_->id());
    h->set_default_route(nic, gw_o200_->id());
  }

  // Gateways: HiPPI side routes.
  gw_o200_->add_route(t3e600_->id(), hip_o200, t3e600_->id());
  gw_o200_->add_route(t3e1200_->id(), hip_o200, t3e1200_->id());
  gw_o200_->add_route(t90_->id(), hip_o200, t90_->id());
  gw_ultra30_->add_route(t3e600_->id(), hip_u30, t3e600_->id());
  gw_ultra30_->add_route(t3e1200_->id(), hip_u30, t3e1200_->id());
  gw_ultra30_->add_route(t90_->id(), hip_u30, t90_->id());
  gw_e5000_->add_route(sp2_->id(), hip_e5000, sp2_->id());

  // SP2: everything through the E5000 over the direct HiPPI channel.
  sp2_->set_default_route(hip_sp2, gw_e5000_->id());
}

void Testbed::set_wan_bit_error_rate(double ber) {
  atm_j_->egress_link(wan_port_j_).set_bit_error_rate(ber);
  atm_g_->egress_link(wan_port_g_).set_bit_error_rate(ber);
}

net::Link& Testbed::wan_link_j_to_g() {
  return atm_j_->egress_link(wan_port_j_);
}

net::Link& Testbed::wan_link_g_to_j() {
  return atm_g_->egress_link(wan_port_g_);
}

std::vector<net::Link*> Testbed::atm_uplinks() {
  std::vector<net::Link*> links;
  links.reserve(atm_nics_.size());
  for (const auto& nic : atm_nics_) links.push_back(&nic->uplink());
  return links;
}

void Testbed::shape_host_vc(const std::string& src_host,
                            const std::string& dst_host, units::BitRate rate) {
  net::Host* src = by_name_.at(src_host);
  net::Host* dst = by_name_.at(dst_host);
  for (AtmAttachment& a : atm_attached_) {
    if (&a.nic->owner() == src) {
      a.nic->shape_vc(dst->id(), rate);
      return;
    }
  }
  throw std::out_of_range("shape_host_vc: " + src_host +
                          " has no ATM attachment");
}

units::BitRate Testbed::attachment_rate(const std::string& name) const {
  auto it = attach_rate_.find(name);
  if (it == attach_rate_.end())
    throw std::out_of_range("unknown host: " + name);
  return it->second;
}

}  // namespace gtw::testbed
