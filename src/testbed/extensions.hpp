// Section 5 of the paper, "Extensions of the Testbed": "A dark fibre that
// links the national German Aerospace Research Center (DLR) and the
// University of Cologne to the GMD has just been set up ... A new
// 622 Mbit/s ATM-link between the University of Bonn and the GMD will be
// the basis for metacomputing projects that deal with multiscale molecular
// dynamics and lithospheric fluids."
//
// ExtendedTestbed adds those three sites to the base topology: an ATM
// switch per new site, dark-fibre (2.4 Gbit/s) links for DLR and Cologne,
// a 622 Mbit/s link for Bonn, and one compute/visualization host per site.
#pragma once

#include <utility>
#include <vector>

#include "testbed/testbed.hpp"

namespace gtw::testbed {

class ExtendedTestbed : public Testbed {
 public:
  explicit ExtendedTestbed(TestbedOptions opts = {});

  // New sites (all homed on the GMD switch).
  net::Host& dlr_traffic() { return *dlr_; }         // traffic simulation
  net::Host& cologne_viz() { return *cologne_; }     // media arts / TV prod.
  net::Host& bonn_md() { return *bonn_; }            // molecular dynamics

 private:
  // Attach one new site: a switch linked to the GMD switch at `link_rate`,
  // one host on it, fully routed and VC-provisioned against every ATM host
  // of the base testbed.
  net::Host* add_site(const std::string& host_name, units::BitRate link_rate,
                      units::BitRate host_rate,
                      std::unique_ptr<net::AtmSwitch>& sw_out);

  std::unique_ptr<net::AtmSwitch> sw_dlr_, sw_cologne_, sw_bonn_;
  // GMD-side trunk port per extension-site switch (for site-to-site VCs).
  // A flat vector searched by pointer *identity* — never ordered or hashed
  // by address (gtw-lint rule pointer-order), and only ever 3 entries.
  std::vector<std::pair<net::AtmSwitch*, int>> site_trunk_;
  net::Host* dlr_ = nullptr;
  net::Host* cologne_ = nullptr;
  net::Host* bonn_ = nullptr;
};

}  // namespace gtw::testbed
