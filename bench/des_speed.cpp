// S — the national replay fixture (DESIGN.md §10).  Not a paper figure: a
// national-scale topology (32 sites, >2000 hosts, 100 000 flows), far
// beyond the two-site testbed, run to completion with GTW-San attached
// (require_clean gates the run).  Its event count, stream hash, makespan
// and stream-hash checkpoints are deterministic: the replay gate holds them
// byte for byte and localises a divergence by the checkpoints.  It times
// nothing; gtwbench/ is the one timing harness.
//
// Writes BENCH_des_speed.json and OBS_des_speed.metrics.json.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/attach.hpp"
#include "check/monitor.hpp"
#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/units.hpp"
#include "obs/exporter.hpp"
#include "obs/instrument.hpp"
#include "obs/registry.hpp"

namespace {

using namespace gtw;

// National-scale scenario: a star of `sites` metro sites hanging off one
// national core, each site an access router fanning out to `leaves_per_site`
// hosts.  100 000 datagram flows cross it.  Dozens of sites and thousands
// of hosts is the scale the two-site testbed was the prototype for.

// Point-to-point NIC: transmits every packet onto one fixed egress link
// (the far end of the fibre delivers to the peer host).
class P2pNic final : public net::Nic {
 public:
  P2pNic(net::Host& owner, std::string name, units::Bytes mtu,
         net::Link& link)
      : net::Nic(owner, std::move(name), mtu), link_(link) {}
  void transmit(net::IpPacket pkt, net::HostId) override {
    net::Frame f;
    f.wire_bytes = pkt.total_bytes + 8;  // LLC/SNAP-style encapsulation
    f.pkt = std::move(pkt);
    link_.submit(std::move(f));
  }

 private:
  net::Link& link_;
};

struct NationalConfig {
  int sites = 32;
  int leaves_per_site = 64;
  std::uint64_t flows = 100'000;
  int datagrams_per_flow = 3;
  std::uint32_t flow_datagram_bytes = 4096 + net::kIpHeaderBytes;
  double window_s = 0.3;  // flow starts spread over this span
};

struct NationalStats {
  std::size_t hosts = 0;
  std::size_t links = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  bool completed = false;
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  double makespan_s = 0.0;
  // (simulated time, running stream hash) sampled every checkpoint
  // interval; the determinism gate diffs these between runs to localize a
  // divergence to a simulated-time window instead of a raw byte offset.
  std::vector<std::pair<double, std::uint64_t>> hash_checkpoints;
};

NationalStats run_national(const NationalConfig& nc) {
  des::Scheduler sched;
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<P2pNic>> nics;
  const units::Bytes mtu{9180};

  auto add_host = [&](const std::string& name,
                      net::HostCosts costs) -> net::Host* {
    const auto id = static_cast<net::HostId>(hosts.size());
    hosts.push_back(std::make_unique<net::Host>(sched, name, id, costs));
    return hosts.back().get();
  };
  // One direction of a fibre: a link from `a` to `b` plus the NIC on `a`
  // that feeds it.  Returns the NIC (for routing table entries on `a`).
  auto add_simplex = [&](net::Host* a, net::Host* b, units::BitRate rate,
                         des::SimTime prop, units::Bytes qlimit) -> P2pNic* {
    net::Link::Config cfg;
    cfg.rate = rate;
    cfg.propagation = prop;
    cfg.queue_limit = qlimit;
    links.push_back(std::make_unique<net::Link>(
        sched, a->name() + ">" + b->name(), cfg));
    net::Link* l = links.back().get();
    l->set_sink([b](net::Frame f) { b->receive_from_nic(std::move(f.pkt)); });
    nics.push_back(
        std::make_unique<P2pNic>(*a, a->name() + ".nic", mtu, *l));
    return nics.back().get();
  };

  // Switch-class routers: sub-µs per packet, unlike end-system stacks.
  const net::HostCosts router_costs{des::SimTime::nanoseconds(100),
                                    des::SimTime::nanoseconds(100), 0.02,
                                    0.02};
  const units::BitRate leaf_rate = net::kOc12Line * net::kSdhPayloadFraction;
  const units::BitRate trunk_rate = net::kOc48Line * net::kSdhPayloadFraction;
  const auto leaf_prop = des::SimTime::microseconds(5);     // metro fibre
  const auto trunk_prop = des::SimTime::milliseconds(1);    // ~200 km

  net::Host* core = add_host("core", router_costs);
  core->set_forwarding(true);
  std::vector<net::Host*> leaves;
  net::Link* first_core_trunk = nullptr;

  std::uint64_t delivered = 0;
  for (int s = 0; s < nc.sites; ++s) {
    // Not "s" + std::to_string(s): GCC 12 at -O3 flags that with a false
    // -Wrestrict.
    const std::string sname = std::string(1, 's').append(std::to_string(s));
    net::Host* router = add_host(sname, router_costs);
    router->set_forwarding(true);
    P2pNic* router_up = add_simplex(router, core, trunk_rate, trunk_prop,
                                    units::Bytes{8u << 20});
    P2pNic* core_down = add_simplex(core, router, trunk_rate, trunk_prop,
                                    units::Bytes{8u << 20});
    if (first_core_trunk == nullptr) first_core_trunk = links.back().get();
    router->set_default_route(router_up, core->id());

    for (int h = 0; h < nc.leaves_per_site; ++h) {
      net::Host* leaf =
          add_host(sname + ".h" + std::to_string(h), net::HostCosts{});
      P2pNic* leaf_up = add_simplex(leaf, router, leaf_rate, leaf_prop,
                                    units::Bytes{2u << 20});
      P2pNic* router_down = add_simplex(router, leaf, leaf_rate, leaf_prop,
                                        units::Bytes{2u << 20});
      leaf->set_default_route(leaf_up, router->id());
      router->add_route(leaf->id(), router_down, leaf->id());
      core->add_route(leaf->id(), core_down, router->id());
      leaf->bind(net::IpProto::kUdp, 9,
                 [&delivered](const net::IpPacket&) { ++delivered; });
      leaves.push_back(leaf);
    }
  }

  // The flows: random leaf pairs, starts spread across the window.
  des::Rng rng{0x6e6174696f6eULL};
  const auto window_ps = static_cast<std::uint64_t>(nc.window_s * 1e12);
  for (std::uint64_t f = 0; f < nc.flows; ++f) {
    const auto src = static_cast<std::size_t>(
        rng.uniform_int(leaves.size()));
    auto dst = static_cast<std::size_t>(rng.uniform_int(leaves.size()));
    if (dst == src) dst = (dst + 1) % leaves.size();
    const auto start =
        static_cast<std::int64_t>(1 + rng.uniform_int(window_ps));
    sched.schedule_at(
        des::SimTime::picoseconds(start),
        [h = leaves[src], to = leaves[dst]->id(), &nc] {
          for (int i = 0; i < nc.datagrams_per_flow; ++i) {
            net::IpPacket p;
            p.dst = to;
            p.proto = net::IpProto::kUdp;
            p.total_bytes = nc.flow_datagram_bytes;
            p.dst_port = 9;
            h->send_datagram(p);
          }
        });
  }

  // GTW-San: full conservation sweep over the national topology.  Attaching
  // schedules nothing, so the event stream (and its hash checkpoints) is
  // identical to an unmonitored run.
  check::Monitor mon(sched);
  check::attach_scheduler(mon, sched);
  for (const auto& h : hosts) check::attach_host(mon, *h);
  for (const auto& l : links) check::attach_link(mon, *l);

  // Drive the run step-by-step so the stream hash can be sampled at fixed
  // simulated-time checkpoints.  Pure observation: nothing is scheduled,
  // so events and final hash match a plain sched.run() exactly.
  std::vector<std::pair<double, std::uint64_t>> checkpoints;
  const auto cp_interval = des::SimTime::milliseconds(25);
  des::SimTime next_cp = cp_interval;
  while (sched.step()) {
    while (sched.now() >= next_cp) {
      checkpoints.emplace_back(next_cp.sec(), sched.stream_hash());
      next_cp = next_cp + cp_interval;
    }
  }

  mon.finish();
  mon.require_clean("des_speed national");

  {
    // Snapshot the engine-core dashboard after the run (probes read current
    // values at export time); `gtw-trace OBS_des_speed.metrics.json`
    // renders its des.sched.* section.
    obs::Registry reg;
    obs::instrument_scheduler(reg, sched);
    obs::instrument_link(reg, *first_core_trunk, "net.link.core_trunk0");
    std::ofstream metrics("OBS_des_speed.metrics.json", std::ios::binary);
    obs::write_metrics_json(metrics, reg, "des_speed national exact");
  }

  std::uint64_t drops = 0;
  for (const auto& l : links)
    drops += l->drops() + l->outage_drops() + l->corrupted_frames();
  const std::uint64_t expected =
      nc.flows * static_cast<std::uint64_t>(nc.datagrams_per_flow);
  NationalStats st;
  st.hosts = hosts.size();
  st.links = links.size();
  st.delivered = delivered;
  st.drops = drops;
  st.completed = delivered == expected && drops == 0;
  st.events = sched.events_executed();
  st.hash = sched.stream_hash();
  st.makespan_s = sched.now().sec();
  st.hash_checkpoints = std::move(checkpoints);
  // The final hash is always the last checkpoint, even off the grid.
  st.hash_checkpoints.emplace_back(st.makespan_s, st.hash);
  return st;
}

void print_des_speed() {
  std::printf("== national scale: 32 sites, 2081 hosts, 100000 flows ==\n");
  const NationalConfig nat_cfg;
  const NationalStats nat = run_national(nat_cfg);
  std::printf("exact: %zu hosts, %zu links, delivered %llu, drops %llu, "
              "%llu events, makespan %.4f s%s\n",
              nat.hosts, nat.links,
              static_cast<unsigned long long>(nat.delivered),
              static_cast<unsigned long long>(nat.drops),
              static_cast<unsigned long long>(nat.events), nat.makespan_s,
              nat.completed ? "" : "  [INCOMPLETE]");

  // ---- BENCH_des_speed.json ----
  std::ofstream json("BENCH_des_speed.json", std::ios::binary);
  json << "{\n  \"bench\": \"des_speed\",\n";
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "  \"national_exact\": {\"sites\": %d, \"hosts\": %zu, "
      "\"links\": %zu, \"flows\": %llu, \"datagrams_delivered\": %llu, "
      "\"drops\": %llu, \"completed\": %s, \"events\": %llu, "
      "\"stream_hash\": \"0x%016llx\", \"makespan_s\": %.17g",
      nat_cfg.sites, nat.hosts, nat.links,
      static_cast<unsigned long long>(nat_cfg.flows),
      static_cast<unsigned long long>(nat.delivered),
      static_cast<unsigned long long>(nat.drops),
      nat.completed ? "true" : "false",
      static_cast<unsigned long long>(nat.events),
      static_cast<unsigned long long>(nat.hash), nat.makespan_s);
  json << buf;
  // Periodic (simulated time, stream hash) samples: when two runs of this
  // artifact differ, tools/determinism_gate.py reports the first diverging
  // checkpoint, bounding the divergence to one simulated-time window.
  json << ", \"hash_checkpoints\": [";
  for (std::size_t i = 0; i < nat.hash_checkpoints.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s{\"t_s\": %.17g, \"hash\": \"0x%016llx\"}",
                  i == 0 ? "" : ", ", nat.hash_checkpoints[i].first,
                  static_cast<unsigned long long>(
                      nat.hash_checkpoints[i].second));
    json << buf;
  }
  json << "]}\n}\n";
}

}  // namespace

int main() {
  print_des_speed();
  return 0;
}
