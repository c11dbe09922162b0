#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cbr_stream.hpp"

#include "des/scheduler.hpp"
#include "net/atm.hpp"
#include "net/datagram.hpp"
#include "net/hippi.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/units.hpp"

namespace gtw::net {
namespace {

TEST(Aal5Test, CellArithmetic) {
  // 40 bytes + 8 trailer = 48 -> exactly one cell.
  EXPECT_EQ(aal5_cells(40), 1u);
  // 41 bytes + 8 = 49 -> two cells.
  EXPECT_EQ(aal5_cells(41), 2u);
  EXPECT_EQ(aal5_wire_bytes(40), 53u);
  EXPECT_EQ(aal5_wire_bytes(41), 106u);
}

class Aal5Param : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Aal5Param, WireBytesAlwaysCoverPduPlusTrailer) {
  const std::uint32_t pdu = GetParam();
  const std::uint32_t cells = aal5_cells(pdu);
  // Payload capacity of the cells covers PDU + trailer, with < one cell spare.
  EXPECT_GE(cells * kAtmCellPayload, pdu + kAal5TrailerBytes);
  EXPECT_LT(cells * kAtmCellPayload, pdu + kAal5TrailerBytes + kAtmCellPayload);
  EXPECT_EQ(aal5_wire_bytes(pdu), cells * kAtmCellBytes);
}

INSTANTIATE_TEST_SUITE_P(PduSizes, Aal5Param,
                         ::testing::Values(1u, 40u, 48u, 49u, 576u, 1500u,
                                           9180u, 65535u));

TEST(LinkTest, SerializationTiming) {
  des::Scheduler sched;
  Link link(sched, "l",
            {units::BitRate::mbps(100.0), des::SimTime::zero(),
             units::Bytes{1 << 20}, des::SimTime::zero()});
  des::SimTime delivered_at;
  link.set_sink([&](Frame) { delivered_at = sched.now(); });
  Frame f;
  f.wire_bytes = 12500;  // 100000 bits at 100 Mbit/s = 1 ms
  link.submit(f);
  sched.run();
  EXPECT_NEAR(delivered_at.ms(), 1.0, 1e-9);
}

TEST(LinkTest, PropagationAddsDelay) {
  des::Scheduler sched;
  Link link(sched, "l",
            {units::BitRate::mbps(100.0), des::SimTime::milliseconds(5),
             units::Bytes{1 << 20}, des::SimTime::zero()});
  des::SimTime delivered_at;
  link.set_sink([&](Frame) { delivered_at = sched.now(); });
  link.submit(Frame{{}, 12500, 0, kNoHost});
  sched.run();
  EXPECT_NEAR(delivered_at.ms(), 6.0, 1e-9);
}

TEST(LinkTest, FramesSerializeBackToBack) {
  des::Scheduler sched;
  Link link(sched, "l",
            {units::BitRate::mbps(100.0), des::SimTime::zero(),
             units::Bytes{1 << 20}, des::SimTime::zero()});
  std::vector<double> times;
  link.set_sink([&](Frame) { times.push_back(sched.now().ms()); });
  for (int i = 0; i < 3; ++i) link.submit(Frame{{}, 12500, 0, kNoHost});
  sched.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_NEAR(times[0], 1.0, 1e-9);
  EXPECT_NEAR(times[1], 2.0, 1e-9);
  EXPECT_NEAR(times[2], 3.0, 1e-9);
  EXPECT_EQ(link.frames_sent(), 3u);
  EXPECT_EQ(link.bytes_sent(), 37500u);
}

TEST(LinkTest, OverflowDropsWholeFrame) {
  des::Scheduler sched;
  Link link(sched, "l",
            {units::BitRate::mbps(100.0), des::SimTime::zero(),
             units::Bytes{30000}, des::SimTime::zero()});
  int delivered = 0;
  link.set_sink([&](Frame) { ++delivered; });
  EXPECT_TRUE(link.submit(Frame{{}, 12500, 0, kNoHost}));
  EXPECT_TRUE(link.submit(Frame{{}, 12500, 0, kNoHost}));
  EXPECT_FALSE(link.submit(Frame{{}, 12500, 0, kNoHost}));  // 37500 > 30000
  sched.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.drops(), 1u);
}

// A fibre cut while a frame is being clocked out: the frame already past
// the transmitter still arrives, the one on the wire is lost with the
// photons, the queued one is flushed, and the restored line carries
// traffic again.
TEST(LinkTest, CutDuringTransmissionLosesOnlyTheWireAndQueue) {
  des::Scheduler sched;
  // 12500 B at 100 Mbit/s = 1 ms of wire time, then 5 ms of fibre.
  Link link(sched, "l",
            {units::BitRate::mbps(100.0), des::SimTime::milliseconds(5),
             units::Bytes{1 << 20}, des::SimTime::zero()});
  std::vector<std::uint32_t> arrived;
  link.set_sink([&](Frame f) { arrived.push_back(f.pkt.datagram_id); });
  auto submit = [&](std::uint32_t id) {
    Frame f;
    f.pkt.datagram_id = id;
    f.wire_bytes = 12500;
    return link.submit(std::move(f));
  };
  for (std::uint32_t id = 1; id <= 3; ++id) ASSERT_TRUE(submit(id));
  auto conserved = [&] {
    EXPECT_EQ(link.submitted_frames(), link.frames_sent() + link.drops() +
                                           link.outage_drops() +
                                           link.queue_frames());
    EXPECT_EQ(link.submitted_bytes(), link.bytes_sent() +
                                          link.dropped_bytes() +
                                          link.outage_dropped_bytes() +
                                          link.queue_bytes());
  };

  // At 1.5 ms frame 1 is propagating, frame 2 is half on the wire and
  // frame 3 waits in the queue.
  sched.schedule_at(des::SimTime::microseconds(1500), [&] {
    link.set_up(false);
    EXPECT_EQ(link.outage_drops(), 1u);  // frame 3, flushed from the queue
    EXPECT_EQ(link.queue_frames(), 0u);
    EXPECT_EQ(link.queue_bytes(), 12500u);  // frame 2 still occupies the wire
  });
  sched.run();

  EXPECT_EQ(arrived, std::vector<std::uint32_t>{1});
  EXPECT_EQ(sched.now().ps(), des::SimTime::milliseconds(6).ps());
  EXPECT_EQ(link.frames_sent(), 1u);
  EXPECT_EQ(link.outage_drops(), 2u);  // + frame 2, lost at its transmit end
  EXPECT_EQ(link.outage_dropped_bytes(), 25000u);
  EXPECT_EQ(link.drops(), 0u);
  EXPECT_EQ(link.queue_bytes(), 0u);
  conserved();

  link.set_up(true);
  ASSERT_TRUE(submit(4));
  sched.run();
  EXPECT_EQ(arrived, (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(link.submitted_frames(), 4u);
  conserved();
}

// A cut shorter than the frame on the wire still loses that frame: the line
// is restored before the frame's wire time ends, and a frame submitted at
// the restore waits for the wire and is then carried.
TEST(LinkTest, CutShorterThanFrameStillLosesIt) {
  des::Scheduler sched;
  // 1250 B at 1 Mbit/s = 10 ms on the wire.
  Link link(sched, "l",
            {units::BitRate::mbps(1.0), des::SimTime::zero(),
             units::Bytes{1 << 20}, des::SimTime::zero()});
  std::vector<std::uint32_t> arrived;
  std::vector<std::int64_t> arrived_ps;
  link.set_sink([&](Frame f) {
    arrived.push_back(f.pkt.datagram_id);
    arrived_ps.push_back(sched.now().ps());
  });
  auto submit = [&](std::uint32_t id) {
    Frame f;
    f.pkt.datagram_id = id;
    f.wire_bytes = 1250;
    return link.submit(std::move(f));
  };
  ASSERT_TRUE(submit(1));
  sched.schedule_at(des::SimTime::milliseconds(2),
                    [&] { link.set_up(false); });
  sched.schedule_at(des::SimTime::milliseconds(3), [&] {
    link.set_up(true);
    EXPECT_TRUE(submit(2));
  });
  sched.run();

  EXPECT_EQ(arrived, std::vector<std::uint32_t>{2});
  // Frame 2 waits for the cut frame's wire time (to 10 ms), then takes its
  // own 10 ms.
  EXPECT_EQ(arrived_ps,
            std::vector<std::int64_t>{des::SimTime::milliseconds(20).ps()});
  EXPECT_EQ(link.frames_sent(), 1u);
  EXPECT_EQ(link.outage_drops(), 1u);
  EXPECT_EQ(link.outage_dropped_bytes(), 1250u);
  EXPECT_EQ(link.queue_frames(), 0u);
  EXPECT_EQ(link.submitted_frames(), link.frames_sent() + link.drops() +
                                         link.outage_drops() +
                                         link.queue_frames());
  EXPECT_EQ(link.submitted_bytes(), link.bytes_sent() + link.dropped_bytes() +
                                        link.outage_dropped_bytes() +
                                        link.queue_bytes());
}

// Two hosts on one ATM switch exchanging datagrams through a provisioned VC.
struct AtmPair {
  des::Scheduler sched;
  Host a{sched, "a", 1};
  Host b{sched, "b", 2};
  AtmSwitch sw{sched, "sw"};
  AtmNic nic_a{sched, a, "a.atm",
               Link::Config{units::BitRate::mbps(622.0),
                            des::SimTime::microseconds(1),
                            units::Bytes{4u << 20}, des::SimTime::zero()}};
  AtmNic nic_b{sched, b, "b.atm",
               Link::Config{units::BitRate::mbps(622.0),
                            des::SimTime::microseconds(1),
                            units::Bytes{4u << 20}, des::SimTime::zero()}};
  VcAllocator vcs;

  AtmPair() {
    const int pa = sw.add_port(
        Link::Config{units::BitRate::mbps(622.0),
                     des::SimTime::microseconds(1), units::Bytes{4u << 20},
                     des::SimTime::zero()});
    const int pb = sw.add_port(
        Link::Config{units::BitRate::mbps(622.0),
                     des::SimTime::microseconds(1), units::Bytes{4u << 20},
                     des::SimTime::zero()});
    sw.connect_ingress(pa, nic_a.uplink());
    sw.connect_ingress(pb, nic_b.uplink());
    sw.connect_egress(pa, nic_a.ingress());
    sw.connect_egress(pb, nic_b.ingress());
    vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
    a.add_route(2, &nic_a, 2);
    b.add_route(1, &nic_b, 1);
  }
};

TEST(AtmTest, DatagramTraversesSwitch) {
  AtmPair net;
  int got = 0;
  std::uint32_t got_bytes = 0;
  net.b.bind(IpProto::kUdp, 99, [&](const IpPacket& pkt) {
    ++got;
    got_bytes = pkt.total_bytes;
  });
  IpPacket pkt;
  pkt.dst = 2;
  pkt.proto = IpProto::kUdp;
  pkt.dst_port = 99;
  pkt.total_bytes = 1000;
  net.a.send_datagram(std::move(pkt));
  net.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(got_bytes, 1000u);
  EXPECT_EQ(net.sw.unroutable_drops(), 0u);
}

TEST(AtmTest, BothDirectionsWork) {
  AtmPair net;
  int got_a = 0, got_b = 0;
  net.a.bind(IpProto::kUdp, 7, [&](const IpPacket&) { ++got_a; });
  net.b.bind(IpProto::kUdp, 7, [&](const IpPacket&) { ++got_b; });
  IpPacket to_b;
  to_b.dst = 2;
  to_b.proto = IpProto::kUdp;
  to_b.dst_port = 7;
  to_b.total_bytes = 500;
  net.a.send_datagram(std::move(to_b));
  IpPacket to_a;
  to_a.dst = 1;
  to_a.proto = IpProto::kUdp;
  to_a.dst_port = 7;
  to_a.total_bytes = 500;
  net.b.send_datagram(std::move(to_a));
  net.sched.run();
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 1);
}

TEST(AtmTest, UnmappedVcCountsDrop) {
  des::Scheduler sched;
  Host a(sched, "a", 1);
  AtmNic nic(sched, a, "a.atm",
             Link::Config{units::BitRate::mbps(622.0), des::SimTime::zero(),
                          units::Bytes{1u << 20}, des::SimTime::zero()});
  IpPacket pkt;
  pkt.total_bytes = 100;
  nic.transmit(std::move(pkt), /*next_hop=*/55);
  EXPECT_EQ(nic.no_vc_drops(), 1u);
}

TEST(IpFragmentationTest, LargeDatagramReassembles) {
  AtmPair net;
  int got = 0;
  std::uint32_t got_bytes = 0;
  net.b.bind(IpProto::kUdp, 99, [&](const IpPacket& pkt) {
    ++got;
    got_bytes = pkt.total_bytes;
  });
  IpPacket pkt;
  pkt.dst = 2;
  pkt.proto = IpProto::kUdp;
  pkt.dst_port = 99;
  pkt.total_bytes = 100'000;  // far above the 9180 MTU
  net.a.send_datagram(std::move(pkt));
  net.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(got_bytes, 100'000u);
  // More than one fragment was actually sent.
  EXPECT_GT(net.a.packets_sent(), 10u);
}

TEST(HippiTest, StationForwarding) {
  des::Scheduler sched;
  Host a(sched, "cray", 1), b(sched, "sp2", 2);
  HippiSwitch sw(sched, "hippi");
  HippiNic nic_a(sched, a, "a.hippi");
  HippiNic nic_b(sched, b, "b.hippi");
  const int pa = sw.add_port(Link::Config{kHippiRate, des::SimTime::zero(),
                                          units::Bytes{4u << 20},
                                          des::SimTime::zero()});
  const int pb = sw.add_port(Link::Config{kHippiRate, des::SimTime::zero(),
                                          units::Bytes{4u << 20},
                                          des::SimTime::zero()});
  sw.connect_ingress(pa, nic_a.uplink());
  sw.connect_ingress(pb, nic_b.uplink());
  sw.connect_egress(pa, nic_a.ingress());
  sw.connect_egress(pb, nic_b.ingress());
  sw.add_station(1, pa);
  sw.add_station(2, pb);
  a.add_route(2, &nic_a, 2);
  b.add_route(1, &nic_b, 1);

  int got = 0;
  b.bind(IpProto::kUdp, 4, [&](const IpPacket&) { ++got; });
  IpPacket pkt;
  pkt.dst = 2;
  pkt.proto = IpProto::kUdp;
  pkt.dst_port = 4;
  pkt.total_bytes = 60000;
  a.send_datagram(std::move(pkt));
  sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(sw.unroutable_drops(), 0u);
}

TEST(GatewayTest, ForwardingHostRelaysBetweenNics) {
  // a --hippi--> gw --hippi--> b  (two point-to-point channels through a
  // forwarding host; the ATM leg is covered by the testbed integration test).
  des::Scheduler sched;
  Host a(sched, "a", 1), gw(sched, "gw", 10), b(sched, "b", 2);
  gw.set_forwarding(true);

  HippiNic a_nic(sched, a, "a.hippi");
  HippiNic gw_left(sched, gw, "gw.left");
  HippiNic gw_right(sched, gw, "gw.right");
  HippiNic b_nic(sched, b, "b.hippi");
  a_nic.uplink().set_sink(gw_left.ingress());
  gw_left.uplink().set_sink(a_nic.ingress());
  gw_right.uplink().set_sink(b_nic.ingress());
  b_nic.uplink().set_sink(gw_right.ingress());

  a.add_route(2, &a_nic, 10);
  gw.add_route(2, &gw_right, 2);
  gw.add_route(1, &gw_left, 1);
  b.add_route(1, &b_nic, 10);

  int got = 0;
  b.bind(IpProto::kUdp, 4, [&](const IpPacket&) { ++got; });
  IpPacket pkt;
  pkt.dst = 2;
  pkt.proto = IpProto::kUdp;
  pkt.dst_port = 4;
  pkt.total_bytes = 1000;
  a.send_datagram(std::move(pkt));
  sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(gw.packets_forwarded(), 1u);
}

TEST(CbrTest, SourceSinkRatesMatchWithoutCongestion) {
  AtmPair net;
  CbrSink sink(net.b, 20);
  testutil::CbrStream src(net.a, 21, 2, 20, units::Bytes{8000},
                          des::SimTime::milliseconds(1), 100);
  src.start();
  net.sched.run();
  EXPECT_EQ(src.frames_sent(), 100u);
  EXPECT_EQ(sink.frames_received(), 100u);
  // 8000 B per ms = 64 Mbit/s offered, and every payload byte arrives.
  EXPECT_NEAR(sink.goodput(des::SimTime::milliseconds(100)).bps(), 64e6, 1.0);
}

}  // namespace
}  // namespace gtw::net
