// Property sweeps over the network substrate: TCP exact-delivery across
// MTU x buffer x loss configurations, scheduler stress determinism, and
// conservation invariants on the testbed.
#include <gtest/gtest.h>

#include <tuple>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "net/atm.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"
#include "testbed/testbed.hpp"

namespace gtw::net {
namespace {

// (mtu, recv_buffer_kb, bottleneck queue kb) — the queue below the window
// provokes loss; above it, a clean run.
using TcpCase = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

class TcpDeliverySweep : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpDeliverySweep, DeliversExactByteCountInOrder) {
  const auto [mtu, window_kb, queue_kb] = GetParam();
  des::Scheduler sched;
  Host a(sched, "a", 1), b(sched, "b", 2);
  AtmSwitch sw(sched, "sw");
  Link::Config fast{units::BitRate::mbps(622.0),
                    des::SimTime::microseconds(200), units::Bytes{16u << 20},
                    des::SimTime::zero()};
  Link::Config bottleneck{units::BitRate::mbps(100.0),
                          des::SimTime::microseconds(200),
                          units::Bytes{static_cast<std::uint64_t>(queue_kb) << 10},
                          des::SimTime::zero()};
  AtmNic nic_a(sched, a, "a.atm", fast, units::Bytes{mtu});
  AtmNic nic_b(sched, b, "b.atm", fast, units::Bytes{mtu});
  const int pa = sw.add_port(fast);
  const int pb = sw.add_port(bottleneck);
  sw.connect_ingress(pa, nic_a.uplink());
  sw.connect_ingress(pb, nic_b.uplink());
  sw.connect_egress(pa, nic_a.ingress());
  sw.connect_egress(pb, nic_b.ingress());
  VcAllocator vcs;
  vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
  a.add_route(2, &nic_a, 2);
  b.add_route(1, &nic_b, 1);

  TcpConfig cfg;
  cfg.mss = units::Bytes{mtu - 40};
  cfg.recv_buffer = units::Bytes{static_cast<std::uint64_t>(window_kb) << 10};
  TcpConnection conn(a, b, 100, 200, cfg);

  // Several messages of awkward sizes; all must arrive, in order.
  des::Rng rng(77);
  std::vector<std::uint64_t> sizes;
  std::uint64_t total = 0;
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t s = 10'000 + rng.uniform_int(400'000);
    sizes.push_back(s);
    total += s;
  }
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    conn.send(0, units::Bytes{sizes[static_cast<std::size_t>(i)]}, std::any{i},
              [&order](const std::any& d, des::SimTime) {
                order.push_back(std::any_cast<int>(d));
              });
  }
  sched.run();
  EXPECT_EQ(conn.bytes_received(1), total);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpDeliverySweep,
    ::testing::Values(TcpCase{1500, 64, 512},    // small MTU, clean
                      TcpCase{1500, 256, 48},    // small MTU, lossy queue
                      TcpCase{9180, 256, 512},   // default ATM MTU, clean
                      TcpCase{9180, 1024, 64},   // overshoot -> loss bursts
                      TcpCase{65280, 512, 1024}, // big MTU, clean
                      TcpCase{65280, 1024, 256}  // big MTU, lossy
                      ));

// Adversity sweep: a seeded schedule of random frame drops, reorderings
// and residual bit errors on both directions of the path.  Whatever the
// schedule, TCP must deliver every queued byte exactly once and in order,
// and its recovery counters must stay consistent.
class TcpAdversitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpAdversitySweep, DeliversEveryByteExactlyOnceUnderRandomFaults) {
  const std::uint64_t seed = GetParam();
  des::Scheduler sched;
  Host a(sched, "a", 1), b(sched, "b", 2);
  AtmSwitch sw(sched, "sw");
  Link::Config wire{units::BitRate::mbps(155.0),
                    des::SimTime::microseconds(250), units::Bytes{2u << 20},
                    des::SimTime::zero()};
  AtmNic nic_a(sched, a, "a.atm", wire, kMtuAtmDefault);
  AtmNic nic_b(sched, b, "b.atm", wire, kMtuAtmDefault);
  const int pa = sw.add_port(wire);
  const int pb = sw.add_port(wire);
  // Residual BER derived from the seed (between ~1e-9 and ~4e-8 — a few
  // corrupted frames over the transfer).
  des::Rng rng(seed);
  sw.egress_link(pb).set_bit_error_rate(
      1e-9 * static_cast<double>(1 + rng.uniform_int(40)));

  // Adversarial interposer on each uplink, in front of the switch it
  // feeds: drop a few percent of frames, delay (reorder past later frames)
  // a few percent more.
  auto harass = [&sched, &rng](Link& uplink, double p_drop, double p_delay) {
    auto shared_pass = std::make_shared<FrameSink>(uplink.sink());
    uplink.set_sink([&sched, &rng, shared_pass, p_drop, p_delay](Frame fr) {
      if (rng.bernoulli(p_drop)) return;
      if (rng.bernoulli(p_delay)) {
        const auto hold = des::SimTime::microseconds(
            static_cast<std::int64_t>(200 + rng.uniform_int(2000)));
        sched.schedule_after(hold, [shared_pass, fr = std::move(fr)]() mutable {
          (*shared_pass)(std::move(fr));
        });
        return;
      }
      (*shared_pass)(std::move(fr));
    });
  };
  sw.connect_ingress(pa, nic_a.uplink());
  sw.connect_ingress(pb, nic_b.uplink());
  harass(nic_a.uplink(), 0.03, 0.05);  // data + a's acks
  harass(nic_b.uplink(), 0.02, 0.04);  // b's acks
  sw.connect_egress(pa, nic_a.ingress());
  sw.connect_egress(pb, nic_b.ingress());
  VcAllocator vcs;
  vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
  a.add_route(2, &nic_a, 2);
  b.add_route(1, &nic_b, 1);

  TcpConnection conn(a, b, 100, 200);
  std::uint64_t queued = 0;
  std::vector<int> order;
  std::vector<int> delivery_counts(8, 0);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t bytes = 20'000 + rng.uniform_int(180'000);
    queued += bytes;
    conn.send(0, units::Bytes{bytes}, std::any{i},
              [&order, &delivery_counts](const std::any& d, des::SimTime) {
                const int idx = std::any_cast<int>(d);
                order.push_back(idx);
                ++delivery_counts[static_cast<std::size_t>(idx)];
              });
  }
  sched.run();

  // Exactly-once, in-order delivery of every queued byte.
  EXPECT_EQ(conn.bytes_received(1), queued);
  EXPECT_EQ(conn.stats(0).bytes_acked, queued);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  for (int c : delivery_counts) EXPECT_EQ(c, 1);
  // Recovery-counter invariants: every timeout forces at least one
  // retransmission, and something was actually lost under this schedule.
  EXPECT_GE(conn.stats(0).retransmits, conn.stats(0).timeouts);
  EXPECT_GT(conn.stats(0).retransmits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpAdversitySweep,
                         ::testing::Values(11u, 23u, 37u, 59u, 97u));

TEST(SchedulerStress, ManyInterleavedTimersStayDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    des::Scheduler sched;
    des::Rng rng(seed);
    std::uint64_t checksum = 1469598103934665603ULL;
    int live = 0;
    // Self-rescheduling timers with random periods, plus cancellations.
    std::vector<des::EventHandle> handles;
    std::function<void(int)> tick = [&](int id) {
      checksum = (checksum ^ static_cast<std::uint64_t>(id)) * 1099511628211ULL;
      checksum ^= static_cast<std::uint64_t>(sched.now().ps());
      if (++live < 4000) {
        sched.schedule_after(
            des::SimTime::microseconds(1 + static_cast<std::int64_t>(
                                               rng.uniform_int(500))),
            [&tick, id] { tick(id); });
      }
    };
    for (int id = 0; id < 20; ++id) {
      sched.schedule_after(des::SimTime::microseconds(
                               static_cast<std::int64_t>(rng.uniform_int(100))),
                           [&tick, id] { tick(id); });
    }
    // A few cancelled decoys must not perturb anything.
    for (int i = 0; i < 50; ++i) {
      auto h = sched.schedule_after(des::SimTime::milliseconds(1),
                                    [&checksum] { checksum = 0; });
      h.cancel();
    }
    sched.run();
    return checksum;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(ConservationTest, TestbedPacketAccountingBalances) {
  // Sum of received + forwarded-at-gateways equals what was sent when the
  // network is loss-free.
  testbed::Testbed tb{testbed::TestbedOptions{}};
  const int n = 40;
  int received = 0;
  tb.sp2().bind(IpProto::kUdp, 77, [&](const IpPacket&) { ++received; });
  for (int i = 0; i < n; ++i) {
    IpPacket pkt;
    pkt.dst = tb.sp2().id();
    pkt.proto = IpProto::kUdp;
    pkt.dst_port = 77;
    pkt.total_bytes = 5000;
    tb.t3e600().send_datagram(std::move(pkt));
  }
  tb.scheduler().run();
  EXPECT_EQ(received, n);
  EXPECT_EQ(tb.t3e600().packets_sent(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(tb.gw_o200().packets_forwarded(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(tb.gw_e5000().packets_forwarded(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(tb.sp2().packets_received(), static_cast<std::uint64_t>(n));
}

TEST(ConservationTest, LinkByteCountersMatchFrames) {
  des::Scheduler sched;
  Link link(sched, "l",
            {units::BitRate::mbps(100.0), des::SimTime::zero(),
             units::Bytes{1u << 20}, des::SimTime::zero()});
  std::uint64_t delivered_bytes = 0;
  link.set_sink([&](Frame f) { delivered_bytes += f.wire_bytes; });
  std::uint64_t submitted = 0;
  des::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t bytes =
        100 + static_cast<std::uint32_t>(rng.uniform_int(5000));
    if (link.submit(Frame{{}, bytes, 0, kNoHost})) submitted += bytes;
  }
  sched.run();
  EXPECT_EQ(link.bytes_sent(), submitted);
  EXPECT_EQ(delivered_bytes, submitted);
}

class WanEraSweep
    : public ::testing::TestWithParam<testbed::WanEra> {};

TEST_P(WanEraSweep, CrossSiteSmallMessageLatencyIsEraIndependent) {
  // Latency (unlike bandwidth) is dominated by the 100 km of glass; all
  // eras deliver a small packet in well under 1 ms + serialization.
  testbed::Testbed tb{testbed::TestbedOptions{GetParam()}};
  des::SimTime arrival;
  tb.onyx2_gmd().bind(IpProto::kUdp, 9, [&](const IpPacket&) {
    arrival = tb.scheduler().now();
  });
  IpPacket pkt;
  pkt.dst = tb.onyx2_gmd().id();
  pkt.proto = IpProto::kUdp;
  pkt.dst_port = 9;
  pkt.total_bytes = 200;
  tb.onyx2_juelich().send_datagram(std::move(pkt));
  tb.scheduler().run();
  EXPECT_GT(arrival.us(), 500.0);
  EXPECT_LT(arrival.us(), 1200.0);
}

INSTANTIATE_TEST_SUITE_P(Eras, WanEraSweep,
                         ::testing::Values(testbed::WanEra::kBWin155,
                                           testbed::WanEra::kOc12_1997,
                                           testbed::WanEra::kOc48_1998));

}  // namespace
}  // namespace gtw::net
