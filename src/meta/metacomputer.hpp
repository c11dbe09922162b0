// Metacomputing substrate: the registry of parallel machines that together
// form the metacomputer, and the WAN transport between them.
//
// The paper's testbed ran a "metacomputing-aware" MPI (MetaMPI by Pallas):
// communication *inside* a machine uses the machine's own interconnect;
// communication *between* machines is tunnelled over TCP across the ATM
// testbed by router processes on the front-end hosts.  This module models
// exactly that split: intra-machine traffic is charged a latency+bandwidth
// cost from the machine profile, inter-machine traffic travels over real
// (simulated) TCP connections between the machines' front-end Hosts.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "meta/path_transport.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "units/units.hpp"

namespace gtw::meta {

// Static description of one parallel computer in the metacomputer.
struct MachineSpec {
  std::string name;
  int max_pes = 1;
  // Interconnect model (e.g. T3E torus: ~1 us latency, ~350 MB/s per link).
  des::SimTime intra_latency = des::SimTime::microseconds(1);
  units::BitRate intra_bandwidth = units::ByteRate::per_sec(350e6).to_bit_rate();
  // Front-end host attached to the simulated testbed; nullptr for a machine
  // used standalone (all communication intra-machine).
  net::Host* frontend = nullptr;
  // Dynamic process creation overhead (MPI-2 spawn).
  des::SimTime spawn_base = des::SimTime::milliseconds(100);
  des::SimTime spawn_per_pe = des::SimTime::milliseconds(5);
};

// Byte overhead of the meta library's message envelope on the WAN.
constexpr std::uint32_t kMetaHeaderBytes = 64;

class Metacomputer {
 public:
  explicit Metacomputer(des::Scheduler& sched) : sched_(sched) {}

  int add_machine(MachineSpec spec);
  const MachineSpec& machine(int id) const { return machines_.at(static_cast<std::size_t>(id)); }
  int machine_count() const { return static_cast<int>(machines_.size()); }

  // Reserve `n` processing elements on `machine` (MPI-2 spawn support);
  // returns the first PE index.  Throws if the machine is exhausted.
  int allocate_pes(int machine, int n);

  // Create the WAN router path between two machines' front-ends.  Both must
  // have front-end hosts routed to each other on the testbed.  The TcpConfig
  // overload keeps the historical single-connection behaviour (a pass-through
  // PathTransport); the PathConfig overload opens a full multi-stream path.
  void link_machines(int ma, int mb, net::TcpConfig cfg,
                     std::uint16_t port_base);
  void link_machines(int ma, int mb, PathConfig cfg, std::uint16_t port_base);

  // The transport carrying WAN traffic between two linked machines (for
  // instrumentation and benchmarks); nullptr if the pair was never linked.
  PathTransport* wan_path(int ma, int mb);

  // Send `amount` of application data between machines over the router
  // connection; `on_delivered` fires at the receiving front-end's time.
  // Falls back to an error if the machines were never linked.
  void wan_send(int from_machine, int to_machine, units::Bytes amount,
                std::function<void()> on_delivered);

  bool linked(int ma, int mb) const;
  des::Scheduler& scheduler() { return sched_; }

  // Time for an intra-machine message of `amount` between two PEs.
  des::SimTime intra_cost(int machine_id, units::Bytes amount) const;

  std::uint64_t wan_messages() const { return wan_messages_; }
  std::uint64_t wan_bytes() const { return wan_bytes_; }

 private:
  struct WanLink {
    std::unique_ptr<PathTransport> path;
    int side_of_lo = 0;  // path side owned by the lower machine id
  };

  des::Scheduler& sched_;
  std::vector<MachineSpec> machines_;
  std::vector<int> pe_cursor_;
  std::map<std::pair<int, int>, WanLink> wan_;
  std::uint64_t wan_messages_ = 0;
  std::uint64_t wan_bytes_ = 0;
};

}  // namespace gtw::meta
