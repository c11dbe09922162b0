// Determinism regression tests.
//
// The repo's reproduction claims rest on the DES being a pure function of
// its inputs and seeds.  These tests pin that down at two levels: the
// scheduler's event-stream hash must be replay-stable (same sim twice in
// one process -> same hash), and perturbing the *insertion order* of
// simulation state that lives in associative containers (host routing
// tables, port bindings) must not move a single event.  The second family
// is the regression guard for the unordered-container hazards gtw-lint
// flags: with std::unordered_map route tables, an innocent iteration added
// later would silently break it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "des/scheduler.hpp"
#include "net/atm.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"
#include "testbed/testbed.hpp"

namespace gtw {
namespace {

using net::AtmNic;
using net::AtmSwitch;
using net::Host;
using net::HostCosts;
using net::Link;
using net::VcAllocator;
using net::kMtuAtmDefault;

// Two hosts through one ATM switch — the minimal event-producing topology.
struct MiniNet {
  des::Scheduler sched;
  Host a;
  Host b;
  AtmSwitch sw;
  AtmNic nic_a;
  AtmNic nic_b;
  VcAllocator vcs;

  MiniNet()
      : a(sched, "a", 1), b(sched, "b", 2), sw(sched, "sw"),
        nic_a(sched, a, "a.atm",
              Link::Config{units::BitRate::mbps(622.0),
                           des::SimTime::microseconds(250),
                           units::Bytes{16u << 20}, des::SimTime::zero()},
              kMtuAtmDefault),
        nic_b(sched, b, "b.atm",
              Link::Config{units::BitRate::mbps(622.0),
                           des::SimTime::microseconds(250),
                           units::Bytes{16u << 20}, des::SimTime::zero()},
              kMtuAtmDefault) {
    const int pa = sw.add_port(Link::Config{
        units::BitRate::mbps(622.0), des::SimTime::microseconds(250),
        units::Bytes{16u << 20}, des::SimTime::zero()});
    const int pb = sw.add_port(Link::Config{
        units::BitRate::mbps(622.0), des::SimTime::microseconds(250),
        units::Bytes{16u << 20}, des::SimTime::zero()});
    sw.connect_ingress(pa, nic_a.uplink());
    sw.connect_ingress(pb, nic_b.uplink());
    sw.connect_egress(pa, nic_a.ingress());
    sw.connect_egress(pb, nic_b.ingress());
    vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
  }
};

// Fill both hosts' routing tables with `order`-permuted dummy entries plus
// the two live routes, run a bulk transfer, and report the event-stream
// fingerprint.  Only the insertion order differs between calls.
std::uint64_t run_with_route_order(const std::vector<net::HostId>& order) {
  MiniNet net;
  for (net::HostId dummy : order) {
    net.a.add_route(dummy, &net.nic_a, 2);
    net.b.add_route(dummy, &net.nic_b, 1);
  }
  net.a.add_route(2, &net.nic_a, 2);
  net.b.add_route(1, &net.nic_b, 1);
  const auto res =
      net::run_bulk_transfer(net.sched, net.a, net.b, units::Bytes{512u << 10}, {});
  EXPECT_GT(res.goodput.bps(), 0.0);
  return net.sched.stream_hash();
}

TEST(DeterminismTest, StreamHashIsReplayStableInProcess) {
  const std::uint64_t h1 = run_with_route_order({});
  const std::uint64_t h2 = run_with_route_order({});
  EXPECT_EQ(h1, h2);
}

TEST(DeterminismTest, RouteInsertionOrderDoesNotPerturbEventStream) {
  std::vector<net::HostId> forward, reverse;
  for (net::HostId id = 100; id < 150; ++id) forward.push_back(id);
  reverse.assign(forward.rbegin(), forward.rend());
  // Also an interleaved order, to catch hash-bucket-shaped accidents that a
  // simple reversal might miss.
  std::vector<net::HostId> shuffled;
  for (net::HostId id = 100; id < 150; id += 2) shuffled.push_back(id);
  for (net::HostId id = 101; id < 150; id += 2) shuffled.push_back(id);

  const std::uint64_t h_fwd = run_with_route_order(forward);
  EXPECT_EQ(h_fwd, run_with_route_order(reverse));
  EXPECT_EQ(h_fwd, run_with_route_order(shuffled));
}

TEST(DeterminismTest, BindOrderDoesNotPerturbEventStream) {
  auto run = [](bool flip) {
    MiniNet net;
    net.a.add_route(2, &net.nic_a, 2);
    net.b.add_route(1, &net.nic_b, 1);
    // Extra bound ports (never addressed) in permuted registration order.
    auto noop = [](const net::IpPacket&) {};
    if (flip) {
      for (std::uint16_t p = 9000; p > 8980; --p)
        net.b.bind(net::IpProto::kUdp, p, noop);
    } else {
      for (std::uint16_t p = 8981; p <= 9000; ++p)
        net.b.bind(net::IpProto::kUdp, p, noop);
    }
    const auto res =
        net::run_bulk_transfer(net.sched, net.a, net.b, units::Bytes{256u << 10},
                               {});
    EXPECT_GT(res.goodput.bps(), 0.0);
    return net.sched.stream_hash();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(DeterminismTest, StreamHashIsSensitiveToEventOrder) {
  // Same two timestamps, swapped creation order: the executed (when, seq)
  // pairs differ, so the fingerprint must differ — otherwise the replay
  // gate could not detect a reordering bug.
  des::Scheduler s1;
  s1.schedule_at(des::SimTime::milliseconds(1), [] {});
  s1.schedule_at(des::SimTime::milliseconds(2), [] {});
  s1.run();

  des::Scheduler s2;
  s2.schedule_at(des::SimTime::milliseconds(2), [] {});
  s2.schedule_at(des::SimTime::milliseconds(1), [] {});
  s2.run();

  EXPECT_NE(s1.stream_hash(), s2.stream_hash());
  EXPECT_EQ(s1.events_executed(), s2.events_executed());
}

TEST(DeterminismTest, FullTestbedTransferIsReplayStable) {
  auto run = [] {
    testbed::Testbed tb{testbed::TestbedOptions{}};
    const auto res = net::run_bulk_transfer(tb.scheduler(), tb.gw_o200(),
                                            tb.gw_e5000(), units::Bytes{1u << 20}, {});
    EXPECT_GT(res.goodput.bps(), 0.0);
    return tb.scheduler().stream_hash();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace gtw
