// S — DES engine speed (DESIGN.md §10).  Not a paper figure: this bench
// measures the simulator's event-heap engine core on two axes:
//
//  1. events/sec sweeps of the scheduler on a PHOLD-style self-rescheduling
//     workload and a TCP-timer churn workload.  Each row's event count and
//     event-stream hash are deterministic.
//  2. a national-scale topology (32 sites, >2000 hosts, 100 000 flows)
//     far beyond the two-site testbed, run to completion with GTW-San
//     attached (require_clean gates the run; its wall time includes it).
//
// Writes BENCH_des_speed.json and OBS_des_speed.metrics.json.  With
// --replay every wall-clock-derived field is omitted so the double-run
// determinism gate can hold the artifact to byte identity; everything else
// (event counts, stream hashes, makespans) is deterministic.
#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
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

// ---------------------------------------------------------------------------
// Wall-clock stopwatch.  Timing is *reported* only (events/sec columns); it
// never feeds back into any simulation input, and --replay drops every field
// derived from it, so the determinism contract is untouched.
struct WallTimer {
  std::chrono::steady_clock::time_point t0 =   // gtw-lint: allow(wall-clock)
      std::chrono::steady_clock::now();        // gtw-lint: allow(wall-clock)
  double elapsed_s() const {
    const auto t1 = std::chrono::steady_clock::now();  // gtw-lint: allow(wall-clock)
    return std::chrono::duration<double>(t1 - t0).count();
  }
};

// ---------------------------------------------------------------------------
// Synthetic engine workloads.

struct RunStats {
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  double wall_s = 0.0;
};

// Closure ballast sized like the simulator's real hot-path actions (a
// Host::emit completion captures this + a full IpPacket + a route, ~112
// bytes), which des::Action keeps inline.
using Ballast = std::array<std::uint64_t, 12>;

// PHOLD-style hold model: a fixed population of self-rescheduling events.
// 15/16 hops stay within ~200 µs, 1/16 jump up to ~80 ms ahead, so the
// pending set mixes imminent events with far timers.
struct HoldState {
  des::Scheduler sched;
  des::Rng rng{0x686f6c64ULL};
  std::uint64_t to_schedule = 0;
  // 1-in-N hops jump far ahead; 0 keeps every hop near (the
  // network-simulation steady state, where pending events are timers and
  // serializations within a few RTTs of now).
  std::uint64_t far_one_in = 16;
};

void hold_fire(HoldState* st, const Ballast& b) {
  if (st->to_schedule == 0) return;
  --st->to_schedule;
  const bool far =
      st->far_one_in != 0 && st->rng.uniform_int(st->far_one_in) == 0;
  const auto d = static_cast<std::int64_t>(
      1 + st->rng.uniform_int(far ? 80'000'000'000ULL : 200'000'000ULL));
  Ballast next = b;
  next[0] ^= static_cast<std::uint64_t>(d);
  st->sched.schedule_after(des::SimTime::picoseconds(d),
                           [st, next] { hold_fire(st, next); });
}

RunStats run_hold(std::size_t population, std::uint64_t budget,
                  std::uint64_t far_one_in) {
  HoldState st;
  st.to_schedule = budget;
  st.far_one_in = far_one_in;
  const WallTimer timer;
  const Ballast b{};
  for (std::size_t i = 0; i < population && st.to_schedule != 0; ++i) {
    --st.to_schedule;
    const auto d =
        static_cast<std::int64_t>(1 + st.rng.uniform_int(200'000'000ULL));
    st.sched.schedule_at(des::SimTime::picoseconds(d),
                         [p = &st, b] { hold_fire(p, b); });
  }
  st.sched.run();
  return {st.sched.events_executed(), st.sched.stream_hash(),
          timer.elapsed_s()};
}

// TCP-retransmit-timer churn: every "segment send" arms an RTO timer that
// the next send cancels (the ack won the race) — except for a 1-in-8 stall
// where the timer genuinely fires first.  ~1 cancellation per executed
// event, so the sweep times the cancel path, not just schedule and fire.
struct ChurnSim {
  des::Scheduler sched;
  des::Rng rng{0x636875726eULL};
  std::uint64_t sends_left = 0;
  std::uint64_t timeouts = 0;
  std::vector<des::EventHandle> rto;  // one armed timer per connection
};

void churn_send(ChurnSim* sim, std::size_t c) {
  sim->rto[c].cancel();
  if (sim->sends_left == 0) return;
  --sim->sends_left;
  sim->rto[c] = sim->sched.schedule_after(des::SimTime::microseconds(500),
                                          [sim] { ++sim->timeouts; });
  const bool stall = sim->rng.uniform_int(8) == 0;
  const auto gap = static_cast<std::int64_t>(
      stall ? 700'000'000 : 1 + sim->rng.uniform_int(400'000'000ULL));
  sim->sched.schedule_after(des::SimTime::picoseconds(gap),
                            [sim, c] { churn_send(sim, c); });
}

RunStats run_churn(std::size_t connections, std::uint64_t budget) {
  ChurnSim sim;
  sim.sends_left = budget;
  sim.rto.resize(connections);
  const WallTimer timer;
  for (std::size_t c = 0; c < connections; ++c) {
    const auto start =
        static_cast<std::int64_t>(1 + sim.rng.uniform_int(400'000'000ULL));
    sim.sched.schedule_at(des::SimTime::picoseconds(start),
                          [p = &sim, c] { churn_send(p, c); });
  }
  sim.sched.run();
  return {sim.sched.events_executed(), sim.sched.stream_hash(),
          timer.elapsed_s()};
}

struct SweepRow {
  const char* workload;
  std::size_t population;
  RunStats run;
  double events_per_s() const {
    return static_cast<double>(run.events) / run.wall_s;
  }
};

// ---------------------------------------------------------------------------
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
  double wall_s = 0.0;
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
  // identical to an unmonitored run; the wall time below includes it.
  check::Monitor mon(sched);
  check::attach_scheduler(mon, sched);
  for (const auto& h : hosts) check::attach_host(mon, *h);
  for (const auto& l : links) check::attach_link(mon, *l);

  const WallTimer timer;
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
  const double wall_s = timer.elapsed_s();

  mon.finish();
  mon.require_clean("des_speed national");

  {
    // Snapshot the engine-core dashboard after the run (probes read current
    // values at export time); gtw-trace --obs renders this file.
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
  st.wall_s = wall_s;
  st.hash_checkpoints = std::move(checkpoints);
  // The final hash is always the last checkpoint, even off the grid.
  st.hash_checkpoints.emplace_back(st.makespan_s, st.hash);
  return st;
}

// ---------------------------------------------------------------------------

void print_des_speed(bool replay) {
  std::printf("== DES engine: event queue sweeps ==\n");

  struct SweepCase {
    const char* workload;
    std::size_t population;
    std::uint64_t budget;
    std::uint64_t far_one_in;
  };
  // The population-64 row is the small pending set of a WAN bulk transfer
  // (gtw-bench's wan_bulk peaks at 97 pending events).
  const SweepCase cases[] = {
      {"hold", 64, 300'000, 16},
      {"hold", 1'000, 300'000, 16},
      {"hold", 10'000, 500'000, 16},
      {"hold", 100'000, 800'000, 16},
      {"hold_near", 1'000'000, 1'500'000, 0},
      {"churn", 20'000, 400'000, 0},
  };
  // Best of two timed runs: the schedule (and hash) is identical both
  // times, only the wall clock varies, so min-of-N is the standard way to
  // strip scheduler/turbo noise from the rate estimate.  --replay reports no
  // rate, so one run is enough there.
  std::vector<SweepRow> rows;
  for (const SweepCase& c : cases) {
    const auto run = [&c] {
      return std::string_view(c.workload) == "churn"
                 ? run_churn(c.population, c.budget)
                 : run_hold(c.population, c.budget, c.far_one_in);
    };
    SweepRow r{c.workload, c.population, run()};
    if (!replay) {
      const RunStats again = run();
      assert(again.hash == r.run.hash && again.events == r.run.events);
      if (again.wall_s < r.run.wall_s) r.run = again;
    }
    rows.push_back(r);
  }

  std::printf("workload | population |   events |   events/s\n");
  for (const SweepRow& r : rows) {
    const auto events = static_cast<unsigned long long>(r.run.events);
    if (replay)
      std::printf("%8s | %10zu | %8llu |   (replay)\n", r.workload,
                  r.population, events);
    else
      std::printf("%8s | %10zu | %8llu | %10.3g\n", r.workload,
                  r.population, events, r.events_per_s());
  }

  std::printf("\n== national scale: 32 sites, 2081 hosts, 100000 flows ==\n");
  const NationalConfig nat_cfg;
  const NationalStats nat = run_national(nat_cfg);
  std::printf("exact: %zu hosts, %zu links, delivered %llu, drops %llu, "
              "%llu events, makespan %.4f s%s\n",
              nat.hosts, nat.links,
              static_cast<unsigned long long>(nat.delivered),
              static_cast<unsigned long long>(nat.drops),
              static_cast<unsigned long long>(nat.events), nat.makespan_s,
              nat.completed ? "" : "  [INCOMPLETE]");
  if (!replay)
    std::printf("exact wall %.2f s (%.3g events/s)\n", nat.wall_s,
                static_cast<double>(nat.events) / nat.wall_s);

  // ---- BENCH_des_speed.json ----
  std::ofstream json("BENCH_des_speed.json", std::ios::binary);
  json << "{\n  \"bench\": \"des_speed\",\n  \"replay\": "
       << (replay ? "true" : "false") << ",\n  \"sweeps\": [\n";
  char buf[640];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"workload\": \"%s\", \"population\": %zu, "
                  "\"events\": %llu, \"stream_hash\": \"0x%016llx\"",
                  r.workload, r.population,
                  static_cast<unsigned long long>(r.run.events),
                  static_cast<unsigned long long>(r.run.hash));
    json << buf;
    if (!replay) {
      std::snprintf(buf, sizeof buf, ", \"events_per_s\": %.17g",
                    r.events_per_s());
      json << buf;
    }
    json << (i + 1 < rows.size() ? "},\n" : "}\n");
  }
  json << "  ],\n";
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
  json << "]";
  if (!replay) {
    std::snprintf(buf, sizeof buf,
                  ", \"wall_s\": %.17g, \"events_per_s\": %.17g",
                  nat.wall_s, static_cast<double>(nat.events) / nat.wall_s);
    json << buf;
  }
  json << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool replay = false;
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--replay") replay = true;
  print_des_speed(replay);
  return 0;
}
