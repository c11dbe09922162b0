// Fault-injection and recovery tests: net::FaultPlan scripting link flaps,
// BER bursts, host outages and buffer squeezes against the DES clock;
// TCP recovery through an outage, also under a Communicator WAN send; and
// the FIRE pipeline degrading gracefully through a scripted WAN cut.
#include <gtest/gtest.h>

#include <any>
#include <string>
#include <vector>

#include "cbr_stream.hpp"

#include "des/scheduler.hpp"
#include "fire/pipeline.hpp"
#include "meta/communicator.hpp"
#include "meta/metacomputer.hpp"
#include "net/atm.hpp"
#include "net/datagram.hpp"
#include "net/fault.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"
#include "testbed/testbed.hpp"

namespace gtw::net {
namespace {

using des::SimTime;

SimTime ms(int m) { return SimTime::milliseconds(m); }

// Two hosts connected by one ATM switch (same shape as the TCP tests);
// the switch egress toward b is the natural fault target.
struct FaultFixture {
  des::Scheduler sched;
  Host a;
  Host b;
  AtmSwitch sw;
  AtmNic nic_a;
  AtmNic nic_b;
  VcAllocator vcs;
  int pa = -1, pb = -1;

  FaultFixture()
      : a(sched, "a", 1), b(sched, "b", 2), sw(sched, "sw"),
        nic_a(sched, a, "a.atm",
              Link::Config{units::BitRate::mbps(622.0),
                           SimTime::microseconds(250), units::Bytes{16u << 20},
                           SimTime::zero()},
              kMtuAtmDefault),
        nic_b(sched, b, "b.atm",
              Link::Config{units::BitRate::mbps(622.0),
                           SimTime::microseconds(250), units::Bytes{16u << 20},
                           SimTime::zero()},
              kMtuAtmDefault) {
    const auto cfg =
        Link::Config{units::BitRate::mbps(622.0), SimTime::microseconds(250),
                     units::Bytes{4u << 20}, SimTime::zero()};
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

  Link& toward_b() { return sw.egress_link(pb); }
};

TEST(FaultPlanTest, LinkDownRefusesAndFlushesThenRecovers) {
  des::Scheduler sched;
  Link link(sched, "wire",
            {units::BitRate::mbps(155.0), SimTime::microseconds(100),
             units::Bytes{1u << 20}, SimTime::zero()});
  int delivered = 0;
  link.set_sink([&](Frame) { ++delivered; });

  FaultPlan plan(sched);
  plan.link_down(link, ms(10), ms(20));

  auto submit_frame = [&link]() {
    Frame f;
    f.wire_bytes = 9180;
    link.submit(std::move(f));
  };
  // Before, during and after the outage.
  sched.schedule_at(ms(5), submit_frame);
  sched.schedule_at(ms(20), submit_frame);   // refused: link is down
  sched.schedule_at(ms(40), submit_frame);   // after restore
  sched.run();

  EXPECT_TRUE(link.up());
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.outage_drops(), 1u);
  EXPECT_GT(link.outage_dropped_bytes(), 0u);
  EXPECT_EQ(plan.active_faults(), 0);
  EXPECT_EQ(plan.horizon(), ms(30));
}

TEST(FaultPlanTest, LinkFlapTcpRecoversAllBytes) {
  FaultFixture f;
  FaultPlan plan(f.sched);
  // Cut the data path a -> b shortly into a bulk transfer.
  plan.link_down(f.toward_b(), ms(5), ms(100));

  TcpConnection conn(f.a, f.b, 100, 200);
  const std::uint64_t total = 2u << 20;
  bool delivered = false;
  conn.send(0, units::Bytes{total}, {}, [&](const std::any&, SimTime) { delivered = true; });
  f.sched.run();

  EXPECT_TRUE(delivered);
  EXPECT_EQ(conn.bytes_received(1), total);
  EXPECT_EQ(conn.stats(0).bytes_acked, total);
  EXPECT_GE(conn.stats(0).retransmits, 1u);
  EXPECT_GE(conn.stats(0).timeouts, 1u);
  EXPECT_GE(f.toward_b().outage_drops(), 1u);
}

TEST(FaultPlanTest, BerBurstRestoresPriorRate) {
  FaultFixture f;
  f.toward_b().set_bit_error_rate(1e-12);  // clean-ish baseline
  FaultPlan plan(f.sched);
  plan.ber_burst(f.toward_b(), ms(100), ms(400), 1e-5);

  // Datagram CBR stream across the burst; at 1e-5 a 9 KByte frame is lost
  // with probability ~0.5, so corruption is certain over dozens of frames.
  testutil::CbrStream src(f.a, 7000, 2, 7001, units::Bytes{9000},
                         SimTime::milliseconds(5), 120);
  CbrSink sink(f.b, 7001);
  src.start();
  f.sched.run();

  EXPECT_GT(f.toward_b().corrupted_frames(), 0u);
  EXPECT_LT(sink.frames_received(), src.frames_sent());
  // The burst reverted to the rate captured when it began.
  EXPECT_DOUBLE_EQ(f.toward_b().config().bit_error_rate, 1e-12);
}

TEST(FaultPlanTest, BufferSqueezeCausesDropsAndRestoresLimit) {
  FaultFixture f;
  const units::Bytes original = f.toward_b().config().queue_limit;
  FaultPlan plan(f.sched);
  // Squeeze the switch egress buffer below one MTU frame: every arrival
  // during the squeeze overflows (the upstream NIC serializes, so the
  // egress queue never legitimately holds more than the transmitting
  // frame — only a sub-frame limit drops deterministically here).
  plan.buffer_squeeze(f.toward_b(), ms(0), ms(200), units::Bytes{5'000});

  testutil::CbrStream src(f.a, 7000, 2, 7001, units::Bytes{9000},
                         SimTime::milliseconds(5), 60);
  CbrSink sink(f.b, 7001);
  src.start();
  f.sched.run();

  EXPECT_GT(f.toward_b().drops(), 0u);
  EXPECT_GT(sink.frames_received(), 0u);  // traffic resumes after restore
  EXPECT_LT(sink.frames_received(), src.frames_sent());
  EXPECT_EQ(f.toward_b().config().queue_limit, original);
}

TEST(FaultPlanTest, HostOutageStopsForwardingThenResumes) {
  FaultFixture f;
  FaultPlan plan(f.sched);
  plan.host_outage(f.b, ms(100), ms(200));

  testutil::CbrStream src(f.a, 7000, 2, 7001, units::Bytes{9000},
                         SimTime::milliseconds(10), 60);
  CbrSink sink(f.b, 7001);
  src.start();
  f.sched.run();

  EXPECT_TRUE(f.b.up());
  EXPECT_GT(f.b.outage_drops(), 0u);
  // ~20 frames fall into the outage window; the rest arrive.
  EXPECT_LT(sink.frames_received(), src.frames_sent());
  EXPECT_GT(sink.frames_received(), 30u);
}

TEST(FaultPlanTest, ObserversSeeBeginAndEndInOrder) {
  FaultFixture f;
  FaultPlan plan(f.sched);

  struct Seen {
    FaultEvent::Kind kind;
    bool active;
    SimTime at;
    int active_count;
  };
  std::vector<Seen> seen;
  plan.add_observer([&](const FaultEvent& ev, bool active) {
    seen.push_back({ev.kind, active, f.sched.now(), plan.active_faults()});
  });

  plan.link_down(f.toward_b(), ms(10), ms(30));
  plan.ber_burst(f.toward_b(), ms(20), ms(40), 1e-6);
  EXPECT_EQ(plan.scheduled(), 2u);
  f.sched.run();

  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].kind, FaultEvent::Kind::kLinkDown);
  EXPECT_TRUE(seen[0].active);
  EXPECT_EQ(seen[0].at, ms(10));
  EXPECT_EQ(seen[0].active_count, 1);
  EXPECT_EQ(seen[1].kind, FaultEvent::Kind::kBerBurst);
  EXPECT_TRUE(seen[1].active);
  EXPECT_EQ(seen[1].active_count, 2);  // overlap
  EXPECT_FALSE(seen[2].active);        // link restored at 40 ms
  EXPECT_EQ(seen[2].at, ms(40));
  EXPECT_FALSE(seen[3].active);        // burst ends at 60 ms
  EXPECT_EQ(seen[3].at, ms(60));
  EXPECT_FALSE(plan.any_active());
  EXPECT_EQ(plan.horizon(), ms(60));
  EXPECT_STREQ(to_string(FaultEvent::Kind::kLinkDown), "link_down");
}

// The same script must replay bit-identically: every counter of two
// independent runs agrees exactly.
TEST(FaultPlanTest, SameScriptReplaysIdentically) {
  struct Outcome {
    std::uint64_t acked, retransmits, timeouts, outage_drops, corrupted;
    bool operator==(const Outcome&) const = default;
  };
  auto run_once = []() {
    FaultFixture f;
    FaultPlan plan(f.sched);
    plan.link_down(f.toward_b(), ms(5), ms(80));
    plan.ber_burst(f.toward_b(), ms(120), ms(60), 1e-6);
    TcpConnection conn(f.a, f.b, 100, 200);
    conn.send(0, units::Bytes{4u << 20}, {}, nullptr);
    f.sched.run();
    return Outcome{conn.stats(0).bytes_acked, conn.stats(0).retransmits,
                   conn.stats(0).timeouts, f.toward_b().outage_drops(),
                   f.toward_b().corrupted_frames()};
  };
  const Outcome first = run_once();
  const Outcome second = run_once();
  EXPECT_EQ(first.acked, 4u << 20);
  EXPECT_TRUE(first == second);
}

}  // namespace
}  // namespace gtw::net

namespace gtw::meta {
namespace {

using des::SimTime;

SimTime ms(int m) { return SimTime::milliseconds(m); }

// Two machines whose front-ends are joined by one ATM switch; the switch
// egress links are the WAN path the FaultPlan cuts.
struct OutageFixture {
  des::Scheduler sched;
  net::Host fe_a{sched, "fe_a", 1};
  net::Host fe_b{sched, "fe_b", 2};
  net::AtmSwitch sw{sched, "sw"};
  net::AtmNic nic_a{sched, fe_a, "a.atm",
                    net::Link::Config{units::BitRate::mbps(622.0),
                                      des::SimTime::microseconds(250),
                                      units::Bytes{16u << 20},
                                      des::SimTime::zero()}};
  net::AtmNic nic_b{sched, fe_b, "b.atm",
                    net::Link::Config{units::BitRate::mbps(622.0),
                                      des::SimTime::microseconds(250),
                                      units::Bytes{16u << 20},
                                      des::SimTime::zero()}};
  net::VcAllocator vcs;
  Metacomputer mc{sched};
  int ma = -1, mb = -1;
  int pa = -1, pb = -1;

  OutageFixture() {
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
    fe_a.add_route(2, &nic_a, 2);
    fe_b.add_route(1, &nic_b, 1);

    MachineSpec a;
    a.name = "T3E";
    a.max_pes = 8;
    a.frontend = &fe_a;
    MachineSpec b;
    b.name = "SP2";
    b.max_pes = 8;
    b.frontend = &fe_b;
    ma = mc.add_machine(a);
    mb = mc.add_machine(b);
    mc.link_machines(ma, mb, net::TcpConfig{}, 7000);
  }

  net::Link& wan_toward_b() { return sw.egress_link(pb); }
};

// The machines' path is reliable TCP, which recovers from the outage by
// itself: the message arrives once the link heals, and exactly once — a
// second posted recv would catch any duplicate copy.
TEST(CommunicatorOutageTest, WanSendThroughOutageDeliversOnceAfterHeal) {
  OutageFixture f;
  net::FaultPlan plan(f.sched);
  plan.link_down(f.wan_toward_b(), ms(1), ms(400));

  Communicator comm(f.mc, {{f.ma, 0}, {f.mb, 0}});
  int received = 0;
  SimTime received_at = SimTime::zero();
  for (int i = 0; i < 2; ++i) {
    comm.recv(1, 0, 7, [&](const Message& m) {
      ++received;
      received_at = f.sched.now();
      EXPECT_EQ(m.bytes, 100'000u);
    });
  }
  comm.send(0, 1, 7, 100'000);
  f.sched.run();

  EXPECT_EQ(received, 1);
  EXPECT_GT(received_at, ms(401));  // the link is down over [1, 401) ms
}

}  // namespace
}  // namespace gtw::meta

namespace gtw::fire {
namespace {

// End-to-end: the fMRI pipeline runs through a scripted WAN outage with a
// FaultPlan observer toggling flow-graph degradation, keeps delivering
// after the line heals, and accounts the recovery in its metrics.
TEST(FireFaultRecoveryTest, PipelineDegradesThroughWanOutageAndRecovers) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  PipelineConfig cfg;
  cfg.n_scans = 10;
  cfg.t3e_pes = 256;
  // Results cross the WAN: compute in Juelich, display at the GMD.
  FmriPipeline pipe(tb.scheduler(),
                    {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_gmd()},
                    cfg);

  net::FaultPlan plan(tb.scheduler());
  plan.add_observer([&](const net::FaultEvent&, bool) {
    pipe.graph().set_degraded(plan.any_active());
  });
  plan.link_down(tb.wan_link_j_to_g(), des::SimTime::seconds(8),
                 des::SimTime::seconds(6));

  pipe.start();
  tb.scheduler().run();

  const auto& m = pipe.metrics();
  EXPECT_EQ(m.degraded_spans, 1u);
  EXPECT_EQ(m.recoveries, 1u);
  EXPECT_EQ(m.degraded_time, des::SimTime::seconds(6));
  EXPECT_GT(m.last_recovery_time, des::SimTime::zero());
  // The run still finishes: scans completed before and after the outage.
  const PipelineResult res = pipe.result();
  EXPECT_GE(static_cast<int>(res.records.size()), 1);
  EXPECT_EQ(pipe.graph().in_flight(), 0);
  EXPECT_GT(m.completed, 0u);
}

}  // namespace
}  // namespace gtw::fire
