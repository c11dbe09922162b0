// Link-quality features: residual bit errors (the testbed's early
// "stability problems" of section 2) and per-VC CBR traffic shaping.
#include <gtest/gtest.h>

#include <cmath>

#include "cbr_stream.hpp"

#include "apps/video.hpp"
#include "des/scheduler.hpp"
#include "net/atm.hpp"
#include "net/datagram.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"
#include "testbed/testbed.hpp"

namespace gtw::net {
namespace {

TEST(BitErrorTest, CleanLinkDeliversEverything) {
  des::Scheduler sched;
  Link link(sched, "l",
            {units::BitRate::mbps(100.0), des::SimTime::zero(),
             units::Bytes{8u << 20}, des::SimTime::zero(), 0.0});
  int got = 0;
  link.set_sink([&](Frame) { ++got; });
  for (int i = 0; i < 500; ++i) link.submit(Frame{{}, 1000, 0, kNoHost});
  sched.run();
  EXPECT_EQ(got, 500);
  EXPECT_EQ(link.corrupted_frames(), 0u);
}

class BerParam : public ::testing::TestWithParam<double> {};

TEST_P(BerParam, LossRateTracksFrameErrorProbability) {
  const double ber = GetParam();
  des::Scheduler sched;
  Link link(sched, "l",
            {units::BitRate::gbps(1.0), des::SimTime::zero(),
             units::Bytes{64u << 20}, des::SimTime::zero(), ber});
  int got = 0;
  link.set_sink([&](Frame) { ++got; });
  const int frames = 4000;
  const std::uint32_t bytes = 4000;
  for (int i = 0; i < frames; ++i) link.submit(Frame{{}, bytes, 0, kNoHost});
  sched.run();
  const double p_loss = 1.0 - std::pow(1.0 - ber, bytes * 8.0);
  const double expected = frames * (1.0 - p_loss);
  // Within 5 sigma of the binomial expectation.
  const double sigma = std::sqrt(frames * p_loss * (1.0 - p_loss));
  EXPECT_NEAR(got, expected, 5.0 * sigma + 1.0);
  EXPECT_EQ(link.corrupted_frames() + static_cast<std::uint64_t>(got),
            static_cast<std::uint64_t>(frames));
}

INSTANTIATE_TEST_SUITE_P(Rates, BerParam,
                         ::testing::Values(1e-6, 1e-5, 5e-5));

TEST(BitErrorTest, TcpSurvivesNoisyWanLink) {
  // Even with a frame-corrupting WAN (roughly the testbed's pre-fix state),
  // TCP completes the transfer — just slower.
  des::Scheduler sched;
  Host a(sched, "a", 1), b(sched, "b", 2);
  AtmSwitch sw(sched, "sw");
  Link::Config clean{units::BitRate::mbps(622.0),
                     des::SimTime::microseconds(100), units::Bytes{8u << 20},
                     des::SimTime::zero()};
  Link::Config dirty = clean;
  dirty.bit_error_rate = 2e-8;  // ~1% loss for 64 KB frames
  AtmNic nic_a(sched, a, "a.atm", clean, kMtuAtmFore);
  AtmNic nic_b(sched, b, "b.atm", clean, kMtuAtmFore);
  const int pa = sw.add_port(clean);
  const int pb = sw.add_port(dirty);
  sw.connect_ingress(pa, nic_a.uplink());
  sw.connect_ingress(pb, nic_b.uplink());
  sw.connect_egress(pa, nic_a.ingress());
  sw.connect_egress(pb, nic_b.ingress());
  VcAllocator vcs;
  vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
  a.add_route(2, &nic_a, 2);
  b.add_route(1, &nic_b, 1);

  TcpConfig cfg;
  cfg.mss = kMtuAtmFore - units::Bytes{40};
  cfg.recv_buffer = units::Bytes{1u << 20};
  const auto res = run_bulk_transfer(sched, a, b, units::Bytes{16u << 20}, cfg);
  EXPECT_GT(res.goodput.bps(), 0.0);
  EXPECT_GT(res.sender_stats.retransmits, 0u);
  EXPECT_EQ(res.sender_stats.bytes_acked, 16u << 20);
}

TEST(ShapingTest, ShapedVcStaysWithinContract) {
  des::Scheduler sched;
  Host a(sched, "a", 1), b(sched, "b", 2);
  AtmSwitch sw(sched, "sw");
  Link::Config link{units::BitRate::mbps(622.0),
                    des::SimTime::microseconds(10), units::Bytes{8u << 20},
                    des::SimTime::zero()};
  AtmNic nic_a(sched, a, "a.atm", link, kMtuAtmDefault);
  AtmNic nic_b(sched, b, "b.atm", link, kMtuAtmDefault);
  const int pa = sw.add_port(link);
  const int pb = sw.add_port(link);
  sw.connect_ingress(pa, nic_a.uplink());
  sw.connect_ingress(pb, nic_b.uplink());
  sw.connect_egress(pa, nic_a.ingress());
  sw.connect_egress(pb, nic_b.ingress());
  VcAllocator vcs;
  vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
  a.add_route(2, &nic_a, 2);
  b.add_route(1, &nic_b, 1);
  nic_a.shape_vc(2, units::BitRate::mbps(50.0));

  // Offer a burst far above the shaping rate.
  CbrSink sink(b, 30);
  testutil::CbrStream src(a, 31, 2, 30, units::Bytes{6000},
                          des::SimTime::microseconds(100), 400);
  src.start();  // offered ~480 Mbit/s
  sched.run();
  // Everything eventually arrives (shaping delays, does not drop)...
  EXPECT_EQ(sink.frames_received(), 400u);
  // ...but the delivery rate respects the 50 Mbit/s contract: 400 frames x
  // 6 KB at 50 Mbit/s (plus cell tax) needs > 380 ms.
  EXPECT_GT(sched.now().ms(), 380.0);
}

TEST(ShapingTest, UnshapedVcIsUnaffected) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  // Baseline E3-style check stays fast without shaping.
  net::TcpConfig cfg;
  cfg.mss = tb.options().atm_mtu - units::Bytes{40};
  cfg.recv_buffer = units::Bytes{1u << 20};
  const auto res = run_bulk_transfer(tb.scheduler(), tb.onyx2_juelich(),
                                     tb.onyx2_gmd(), units::Bytes{8u << 20}, cfg);
  EXPECT_GT(res.goodput.bps(), 400e6);
}

TEST(ShapingTest, ShapingProtectsVideoFromCrossTraffic) {
  // Two flows share the Jülich->GMD WAN: a D1 video stream and a greedy
  // TCP bulk transfer.  Without shaping the TCP bursts overflow the WAN
  // queue and kill video frames on the 622 Mbit/s era; with the TCP
  // sender's VC shaped to leave headroom, the video arrives intact.
  auto run_case = [](bool shaped) {
    testbed::Testbed tb{testbed::TestbedOptions{testbed::WanEra::kOc12_1997}};
    // Both flows leave the GMD toward Jülich: they share the GMD switch's
    // WAN egress queue.
    if (shaped) tb.shape_host_vc("e500", "onyx2_juelich", units::BitRate::mbps(250.0));
    apps::D1VideoSession video(tb.onyx2_gmd(), tb.workbench_juelich(),
                               apps::D1VideoConfig{units::BitRate::mbps(270.0), 25.0, 60}, 7700);
    video.start();
    net::TcpConfig cfg;
    cfg.mss = kMtuAtmFore - units::Bytes{40};
    cfg.recv_buffer = units::Bytes{2u << 20};
    net::TcpConnection bulk(tb.e500(), tb.onyx2_juelich(), 7800, 7801, cfg);
    bulk.send(0, units::Bytes{64u << 20});
    tb.scheduler().run();
    return video.report();
  };
  const auto unshaped = run_case(false);
  const auto shaped = run_case(true);
  EXPECT_GT(shaped.frames_received, unshaped.frames_received);
  EXPECT_TRUE(shaped.feasible);
}

}  // namespace
}  // namespace gtw::net
