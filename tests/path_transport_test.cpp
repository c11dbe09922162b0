// meta::PathTransport: striping/reassembly edge cases (1-byte messages,
// message smaller than a chunk, strict in-order delivery), stream failure
// mid-message with watchdog-driven stream resets, token-bucket pacing,
// the adaptive stream/window controller, and the pass-through guarantee
// that a default single-stream path behaves exactly like a bare
// TcpConnection.
#include <gtest/gtest.h>

#include <vector>

#include "des/scheduler.hpp"
#include "meta/metacomputer.hpp"
#include "meta/path_transport.hpp"
#include "net/atm.hpp"
#include "net/fault.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"

namespace gtw::meta {
namespace {

using des::SimTime;

SimTime ms(int m) { return SimTime::milliseconds(m); }

// Two hosts joined by one ATM switch — the same WAN shape the TCP and
// fault tests use; the egress link toward b is the fault target.
struct PathFixture {
  des::Scheduler sched;
  net::Host a{sched, "fe_a", 1};
  net::Host b{sched, "fe_b", 2};
  net::AtmSwitch sw{sched, "sw"};
  net::AtmNic nic_a{sched, a, "a.atm",
                    net::Link::Config{units::BitRate::mbps(622.0),
                                      des::SimTime::microseconds(250),
                                      units::Bytes{16u << 20},
                                      des::SimTime::zero()}};
  net::AtmNic nic_b{sched, b, "b.atm",
                    net::Link::Config{units::BitRate::mbps(622.0),
                                      des::SimTime::microseconds(250),
                                      units::Bytes{16u << 20},
                                      des::SimTime::zero()}};
  net::VcAllocator vcs;
  int pa = -1, pb = -1;

  PathFixture() {
    auto cfg = net::Link::Config{units::BitRate::mbps(622.0),
                                 des::SimTime::microseconds(250),
                                 units::Bytes{16u << 20},
                                 des::SimTime::zero()};
    pa = sw.add_port(cfg);
    pb = sw.add_port(cfg);
    sw.connect_ingress(pa, nic_a.uplink());
    sw.connect_ingress(pb, nic_b.uplink());
    sw.connect_egress(pa, nic_a.ingress());
    sw.connect_egress(pb, nic_b.ingress());
    vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
    a.add_route(2, &nic_a, 2);
    b.add_route(1, &nic_b, 1);
  }

  net::Link& wan_toward_b() { return sw.egress_link(pb); }
};

PathConfig striped(int streams) {
  PathConfig cfg;
  cfg.streams = streams;
  cfg.chunk_bytes = units::Bytes{64u << 10};
  return cfg;
}

TEST(PathTransportTest, OneByteMessage) {
  PathFixture f;
  PathTransport path(f.sched, f.a, f.b, 7000, striped(4));
  int delivered = 0;
  path.send(0, units::Bytes{1}, [&] { ++delivered; });
  f.sched.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(path.stats(0).chunks, 1u);  // a tiny message is one chunk
  EXPECT_EQ(path.stats(0).delivered_bytes, 1u);
  EXPECT_EQ(path.stats(0).reassembly_bytes, 0u);  // drained after delivery
}

TEST(PathTransportTest, MessageSmallerThanChunkStaysWhole) {
  PathFixture f;
  PathTransport path(f.sched, f.a, f.b, 7000, striped(4));
  int delivered = 0;
  path.send(0, units::Bytes{10'000}, [&] { ++delivered; });
  f.sched.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(path.stats(0).chunks, 1u);
  EXPECT_EQ(path.stats(0).delivered_messages, 1u);
}

TEST(PathTransportTest, LargeMessageStripesAcrossAllStreams) {
  PathFixture f;
  PathTransport path(f.sched, f.a, f.b, 7000, striped(4));
  int delivered = 0;
  path.send(0, units::Bytes{4u << 20}, [&] { ++delivered; });  // 64 chunks
  f.sched.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(path.stats(0).chunks, 64u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(path.stream_stats(0, s).chunks, 16u) << "stream " << s;
  }
  // Leak census at drain: striping timers and per-chunk sends balance out
  // (pool slots in use == live events + cancelled tombstones == 0).
  EXPECT_EQ(f.sched.pool_in_use(),
            f.sched.live_events() + f.sched.cancelled_entries());
}

TEST(PathTransportTest, MessagesDeliverInSendOrder) {
  PathFixture f;
  PathTransport path(f.sched, f.a, f.b, 7000, striped(4));
  std::vector<int> order;
  // Mixed sizes: a big striped message first, tiny ones behind it.  The
  // small messages' chunks finish their streams early; delivery must still
  // wait for message 0.
  path.send(0, units::Bytes{2u << 20}, [&] { order.push_back(0); });
  path.send(0, units::Bytes{1}, [&] { order.push_back(1); });
  path.send(0, units::Bytes{100}, [&] { order.push_back(2); });
  f.sched.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Reordering cost is visible: later messages' bytes waited in reassembly.
  EXPECT_GT(path.stats(0).reassembly_peak_bytes, 0u);
  EXPECT_EQ(path.stats(0).reassembly_bytes, 0u);
}

TEST(PathTransportTest, BothSidesCarryTraffic) {
  PathFixture f;
  PathTransport path(f.sched, f.a, f.b, 7000, striped(2));
  int fwd = 0, rev = 0;
  path.send(0, units::Bytes{1u << 20}, [&] { ++fwd; });
  path.send(1, units::Bytes{1u << 20}, [&] { ++rev; });
  f.sched.run();
  EXPECT_EQ(fwd, 1);
  EXPECT_EQ(rev, 1);
  EXPECT_EQ(path.stats(0).delivered_bytes, 1u << 20);
  EXPECT_EQ(path.stats(1).delivered_bytes, 1u << 20);
}

TEST(PathTransportTest, StreamFailureMidMessageRecoversViaReset) {
  PathFixture f;
  net::FaultPlan plan(f.sched);
  // Cut the WAN mid-transfer for long enough that every stream's TCP
  // backs off; the chunk watchdog must tear the streams down and re-issue.
  plan.link_down(f.wan_toward_b(), ms(20), ms(500));

  PathConfig cfg = striped(4);
  cfg.chunk_timeout = ms(250);
  PathTransport path(f.sched, f.a, f.b, 7000, cfg);
  int delivered = 0;
  path.send(0, units::Bytes{8u << 20}, [&] { ++delivered; });
  f.sched.run();

  // Exactly-once delivery despite chunk re-issues on fresh connections.
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(path.stats(0).delivered_messages, 1u);
  EXPECT_EQ(path.stats(0).delivered_bytes, 8u << 20);
  EXPECT_GE(path.stats(0).stream_resets, 1u);
  EXPECT_GE(path.stats(0).chunk_resends, 1u);
}

TEST(PathTransportTest, PacingBoundsInjectionRate) {
  PathFixture f;
  PathConfig cfg = striped(2);
  cfg.pace_rate = units::BitRate::mbps(50.0);  // well under line rate
  cfg.pace_burst = cfg.chunk_bytes;
  PathTransport path(f.sched, f.a, f.b, 7000, cfg);
  int delivered = 0;
  const units::Bytes amount{4u << 20};
  path.send(0, amount, [&] { ++delivered; });
  f.sched.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_GT(path.stats(0).paced_delays, 0u);
  // Two streams paced at 50 Mbit/s each: the transfer cannot beat the
  // aggregate token rate (100 Mbit/s) by more than the initial bursts.
  const double floor_s =
      static_cast<double>(amount.count() - 2 * cfg.pace_burst.count()) * 8.0 /
      100e6;
  EXPECT_GE(f.sched.now().sec(), floor_s);
}

TEST(PathTransportTest, AdaptiveControllerGrowsStreamsUnderLoss) {
  PathFixture f;
  net::FaultPlan plan(f.sched);
  // Sustained bit errors: TCP sees steady retransmits, so every controller
  // interval observes loss and escalates.
  plan.ber_burst(f.wan_toward_b(), ms(1), SimTime::seconds(30), 2e-7);

  PathConfig cfg = striped(8);
  cfg.min_streams = 2;
  cfg.adapt_interval = ms(200);
  PathTransport path(f.sched, f.a, f.b, 7000, cfg);
  // The pool starts fully active; the first clean interval before traffic
  // ramps may shrink it, but under persistent loss it must stay pinned at
  // or grow back toward the ceiling, and the window must have come down.
  int delivered = 0;
  path.send(0, units::Bytes{32u << 20}, [&] { ++delivered; });
  f.sched.run();

  EXPECT_EQ(delivered, 1);
  EXPECT_GE(path.active_streams(), cfg.min_streams);
  EXPECT_LE(path.active_streams(), cfg.streams);
  EXPECT_LT(path.stream_window().count(), cfg.stream_window.count());
  EXPECT_GT(path.goodput(0).bps(), 0.0);
}

TEST(PathTransportTest, ControllerReleasesStreamsOnCleanPath) {
  PathFixture f;
  PathConfig cfg = striped(8);
  cfg.min_streams = 1;
  cfg.adapt_interval = ms(100);
  PathTransport path(f.sched, f.a, f.b, 7000, cfg);
  int delivered = 0;
  path.send(0, units::Bytes{64u << 20}, [&] { ++delivered; });
  f.sched.run();
  EXPECT_EQ(delivered, 1);
  // A long clean transfer gives the controller many loss-free intervals:
  // it must have handed surplus streams back (3 clean ticks per release).
  EXPECT_LT(path.active_streams(), cfg.streams);
  EXPECT_EQ(path.stats(0).stream_resets, 0u);
}

// The tentpole compatibility guarantee: a default-config PathTransport is
// byte-for-byte, event-for-event a single TcpConnection, which is what
// keeps every pre-existing BENCH artifact byte-identical.
TEST(PathTransportTest, PassthroughMatchesRawTcpTiming) {
  const units::Bytes amount{8u << 20};
  SimTime raw_done = SimTime::zero();
  std::uint64_t raw_events = 0;
  {
    PathFixture f;
    net::TcpConnection conn(f.a, f.b, 7000, 7001, net::TcpConfig{});
    conn.send(0, amount, {}, [&](const std::any&, SimTime at) {
      raw_done = at;
    });
    f.sched.run();
    raw_events = f.sched.events_executed();
  }
  SimTime path_done = SimTime::zero();
  std::uint64_t path_events = 0;
  {
    PathFixture f;
    PathTransport path(f.sched, f.a, f.b, 7000, PathConfig{});
    ASSERT_TRUE(path.config().passthrough());
    path.send(0, amount, [&] { path_done = f.sched.now(); });
    f.sched.run();
    path_events = f.sched.events_executed();
  }
  EXPECT_EQ(path_done, raw_done);
  EXPECT_EQ(path_events, raw_events);
}

// Same guarantee one layer up: Metacomputer::wan_send over the TcpConfig
// link_machines overload (now a pass-through path) must time exactly as it
// did when it held the connection directly.
TEST(PathTransportTest, MetacomputerPassthroughTiming) {
  PathFixture f;
  Metacomputer mc(f.sched);
  MachineSpec ma_spec;
  ma_spec.name = "A";
  ma_spec.frontend = &f.a;
  MachineSpec mb_spec;
  mb_spec.name = "B";
  mb_spec.frontend = &f.b;
  const int ma = mc.add_machine(ma_spec);
  const int mb = mc.add_machine(mb_spec);
  mc.link_machines(ma, mb, net::TcpConfig{}, 7000);
  ASSERT_NE(mc.wan_path(ma, mb), nullptr);
  EXPECT_TRUE(mc.wan_path(ma, mb)->config().passthrough());

  int delivered = 0;
  mc.wan_send(ma, mb, units::Bytes{1u << 20}, [&] { ++delivered; });
  f.sched.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(mc.wan_messages(), 1u);
}

TEST(PathTransportTest, RejectsInvalidConfig) {
  PathFixture f;
  PathConfig bad = striped(0);
  EXPECT_THROW(PathTransport(f.sched, f.a, f.b, 7000, bad),
               std::invalid_argument);
  PathConfig no_chunk;
  no_chunk.streams = 2;
  no_chunk.chunk_bytes = units::Bytes{0};
  EXPECT_THROW(PathTransport(f.sched, f.a, f.b, 7000, no_chunk),
               std::invalid_argument);
}

}  // namespace
}  // namespace gtw::meta
