#include "testbed/extensions.hpp"

#include <algorithm>

#include "net/units.hpp"

namespace gtw::testbed {

namespace {
net::HostCosts site_host_costs() {
  // Late-1999 workstation/server class machines at the new sites.
  return {des::SimTime::microseconds(20), des::SimTime::microseconds(20),
          3.0, 3.0};
}
constexpr des::SimTime kSiteProp = des::SimTime::microseconds(150);  // ~30 km
}  // namespace

ExtendedTestbed::ExtendedTestbed(TestbedOptions opts) : Testbed(opts) {
  // Dark fibre to DLR and Cologne (same OC-48 class as the main line), a
  // 622 Mbit/s ATM link to Bonn.
  dlr_ = add_site("dlr_traffic", net::kOc48Line, net::kOc12Line, sw_dlr_);
  cologne_ = add_site("cologne_viz", net::kOc48Line, net::kOc12Line,
                      sw_cologne_);
  bonn_ = add_site("bonn_md", net::kOc12Line, net::kOc12Line, sw_bonn_);
}

net::Host* ExtendedTestbed::add_site(const std::string& host_name,
                                     units::BitRate link_rate,
                                     units::BitRate host_rate,
                                     std::unique_ptr<net::AtmSwitch>& sw_out) {
  sw_out = std::make_unique<net::AtmSwitch>(sched_, "asx-" + host_name);
  net::AtmSwitch& sw = *sw_out;
  net::AtmSwitch& gmd = atm_gmd();

  // Site <-> GMD trunk.
  const units::BitRate usable = link_rate * net::kSdhPayloadFraction;
  const net::Link::Config trunk{usable, kSiteProp, opts_.switch_buffer,
                                des::SimTime::zero()};
  const int port_site_to_gmd = sw.add_port(trunk);
  const int port_gmd_to_site = gmd.add_port(trunk);
  gmd.connect_ingress(port_gmd_to_site, sw.egress_link(port_site_to_gmd));
  sw.connect_ingress(port_site_to_gmd, gmd.egress_link(port_gmd_to_site));

  // The site's host.
  net::Host* host = add_host(host_name, site_host_costs());
  // Snapshot of the attachments present *before* this host joins (the VC
  // loop below pairs the new host with each of them).
  const std::vector<AtmAttachment> peers = atm_attached_;
  net::AtmNic* nic = attach_atm(*host, sw, host_rate);
  const int host_port = atm_attached_.back().port;

  // VCs from the new host to every previously attached ATM host.
  for (const AtmAttachment& a : peers) {
    std::vector<net::VcHop> path;
    path.push_back({&sw, host_port, port_site_to_gmd});
    if (a.sw == &gmd) {
      path.push_back({&gmd, port_gmd_to_site, a.port});
    } else if (a.sw == &atm_juelich()) {
      path.push_back({&gmd, port_gmd_to_site, wan_port_g_});
      path.push_back({&atm_juelich(), wan_port_j_, a.port});
    } else {
      // Another extension site: via GMD, out its trunk port.  The trunk
      // port of that site's switch is port 0 by construction; find the GMD
      // side by asking the attachment's switch for its port-0 link — the
      // provisioner only needs ports, so route via the GMD trunk pair.
      // (Site-to-site VCs hop: site A -> GMD -> site B.)
      // The GMD-side port for switch a.sw is recorded in site_trunk_.
      auto it = std::find_if(site_trunk_.begin(), site_trunk_.end(),
                             [&](const auto& e) { return e.first == a.sw; });
      if (it == site_trunk_.end()) continue;
      path.push_back({&gmd, port_gmd_to_site, it->second});
      path.push_back({a.sw, /*in=*/0, a.port});
    }
    vcs_.provision(*nic, *a.nic, path);

    // Routing: both directions direct (next hop = final destination).
    host->add_route(a.nic->owner().id(), nic, a.nic->owner().id());
    a.nic->owner().add_route(host->id(), a.nic, host->id());
  }
  site_trunk_.emplace_back(&sw, port_gmd_to_site);

  // Supercomputers behind the gateways.
  host->add_route(t3e600().id(), nic, gw_o200().id());
  host->add_route(t3e1200().id(), nic, gw_o200().id());
  host->add_route(t90().id(), nic, gw_o200().id());
  host->add_route(sp2().id(), nic, gw_e5000().id());

  attach_rate_[host_name] = host_rate;
  return host;
}

}  // namespace gtw::testbed
