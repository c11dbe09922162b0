// Canonical Gigabit Testbed West topology (Figure 1 of the paper, June 1999
// configuration): Jülich and Sankt Augustin ~100 km apart, joined by an
// OC-12 (1997) or OC-48 (since August 1998) SDH/ATM line between two Fore
// ASX-4000 switches.  The supercomputers attach over HiPPI with workstation
// IP gateways; workstations and servers attach with 622 or 155 Mbit/s ATM
// adapters.  A 155 Mbit/s "B-WiN" era can be selected as the baseline the
// testbed was built to surpass.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "net/atm.hpp"
#include "units/units.hpp"
#include "net/hippi.hpp"
#include "net/host.hpp"

namespace gtw::testbed {

enum class WanEra {
  kBWin155,    // national research network baseline (155 Mbit/s access)
  kOc12_1997,  // first year of the testbed: 622 Mbit/s
  kOc48_1998,  // since August 1998: 2.4 Gbit/s
};

struct TestbedOptions {
  WanEra era = WanEra::kOc48_1998;
  double distance_km = 100.0;
  // ATM MTU used throughout ("the Fore ATM adapter supports large MTU
  // sizes, IP packets of 64 KByte size can be transferred throughout the
  // network").
  units::Bytes atm_mtu = net::kMtuAtmFore;
  units::Bytes switch_buffer{4u << 20};
};

// Everything needed to run experiments on the assembled testbed.  Hosts are
// exposed by the names used in the paper.
class Testbed {
 public:
  explicit Testbed(TestbedOptions opts);

  des::Scheduler& scheduler() { return sched_; }
  const TestbedOptions& options() const { return opts_; }
  units::BitRate wan_rate() const;
  // Round-trip propagation of the WAN fibre (2x one-way trunk delay) —
  // what transport-layer sweeps vary when they scan RTT.
  des::SimTime wan_rtt() const;

  // --- Jülich ---
  net::Host& t3e600() { return *t3e600_; }     // 512-PE Cray T3E-600
  net::Host& t3e1200() { return *t3e1200_; }   // 512-PE Cray T3E-1200
  net::Host& t90() { return *t90_; }           // 10-CPU Cray T90
  net::Host& gw_o200() { return *gw_o200_; }   // SGI O200 HiPPI/ATM gateway
  net::Host& gw_ultra30() { return *gw_ultra30_; }  // Sun Ultra 30 gateway
  net::Host& scanner_frontend() { return *scanner_fe_; }
  net::Host& onyx2_juelich() { return *onyx2_j_; }  // 2-proc frame buffer
  net::Host& workbench_juelich() { return *workbench_j_; }

  // --- Sankt Augustin (GMD) ---
  net::Host& sp2() { return *sp2_; }           // IBM SP2
  net::Host& gw_e5000() { return *gw_e5000_; } // Sun E5000 HiPPI/ATM gateway
  net::Host& onyx2_gmd() { return *onyx2_gmd_; }  // 12-proc Onyx 2
  net::Host& e500() { return *e500_; }         // 8-proc Sun E500

  net::AtmSwitch& atm_juelich() { return *atm_j_; }
  net::AtmSwitch& atm_gmd() { return *atm_g_; }

  // All hosts by paper name (e.g. "t3e600", "onyx2_gmd").
  const std::map<std::string, net::Host*>& hosts() const { return by_name_; }

  // Audit helper for the Figure-1 bench: the nominal attachment rate of a
  // host (line rate of its NIC uplink).
  units::BitRate attachment_rate(const std::string& name) const;

  // CBR-shape the VC from `src_host`'s ATM NIC toward `dst_host` (both by
  // paper name).  Only meaningful for ATM-attached sources.
  void shape_host_vc(const std::string& src_host, const std::string& dst_host,
                     units::BitRate rate);

  // Degrade the WAN fibre in both directions (the testbed's 1998
  // attenuation/timing troubles); 0 restores a clean line.
  void set_wan_bit_error_rate(double ber);

  // The WAN fibre itself, per direction — the natural target for scripted
  // faults (net::FaultPlan link flaps, BER bursts, buffer squeezes).
  net::Link& wan_link_j_to_g();
  net::Link& wan_link_g_to_j();

  // Every ATM NIC uplink the builder created, in attachment order.  With
  // the switch egress ports (reachable through the switches) this is the
  // complete link inventory — what check::attach_testbed sweeps when it
  // arms byte-conservation checking over the whole topology.
  std::vector<net::Link*> atm_uplinks();

 protected:
  // Shared with ExtendedTestbed (section-5 sites build on the same plumbing).
  net::Host* add_host(const std::string& name, net::HostCosts costs);
  net::AtmNic* attach_atm(net::Host& h, net::AtmSwitch& sw,
                          units::BitRate rate);

  TestbedOptions opts_;
  des::Scheduler sched_;

  std::vector<std::unique_ptr<net::Host>> host_store_;
  std::vector<std::unique_ptr<net::AtmNic>> atm_nics_;
  std::vector<std::unique_ptr<net::HippiNic>> hippi_nics_;
  std::map<std::string, net::Host*> by_name_;
  std::map<std::string, units::BitRate> attach_rate_;

  std::unique_ptr<net::AtmSwitch> atm_j_, atm_g_;
  std::unique_ptr<net::HippiSwitch> hippi_j_;
  net::VcAllocator vcs_;

  // ATM attachment bookkeeping for VC provisioning.
  struct AtmAttachment {
    net::AtmNic* nic;
    net::AtmSwitch* sw;
    int port;
    bool juelich;
  };
  std::vector<AtmAttachment> atm_attached_;
  int wan_port_j_ = -1, wan_port_g_ = -1;

 private:
  net::Host* t3e600_ = nullptr;
  net::Host* t3e1200_ = nullptr;
  net::Host* t90_ = nullptr;
  net::Host* gw_o200_ = nullptr;
  net::Host* gw_ultra30_ = nullptr;
  net::Host* scanner_fe_ = nullptr;
  net::Host* onyx2_j_ = nullptr;
  net::Host* workbench_j_ = nullptr;
  net::Host* sp2_ = nullptr;
  net::Host* gw_e5000_ = nullptr;
  net::Host* onyx2_gmd_ = nullptr;
  net::Host* e500_ = nullptr;
};

}  // namespace gtw::testbed
