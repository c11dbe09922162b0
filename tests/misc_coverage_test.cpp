// Coverage for smaller public surfaces: pipeline scan-skipping, routing MTU
// queries, link statistics, halo-exchange costs in the execution model, and
// frame-streamer interval statistics.
#include <gtest/gtest.h>

#include "exec/machine.hpp"
#include "fire/pipeline.hpp"
#include "meta/communicator.hpp"
#include "net/link.hpp"
#include "net/units.hpp"
#include "testbed/testbed.hpp"
#include "viz/workbench.hpp"

namespace gtw {
namespace {

TEST(PipelineSkipTest, SlowPipelineSkipsStaleScansInsteadOfLagging) {
  // 16 PEs: compute ~7.3 s vs TR 3 s.  The sequential client must fall
  // back to "newest image" semantics: bounded delay, skipped scans > 0.
  testbed::Testbed tb{testbed::TestbedOptions{}};
  fire::PipelineConfig cfg;
  cfg.n_scans = 10;
  cfg.t3e_pes = 16;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  pipe.start();
  tb.scheduler().run();
  const auto res = pipe.result();
  EXPECT_GT(res.scans_skipped, 0);
  // Delay stays bounded (roughly compute + transfers + one TR of waiting),
  // far below the unbounded backlog of a naive queue.
  EXPECT_LT(res.mean_total_delay_s, 20.0);
}

TEST(PipelineSkipTest, FastPipelineSkipsNothing) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  fire::PipelineConfig cfg;
  cfg.n_scans = 8;
  cfg.t3e_pes = 256;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  pipe.start();
  tb.scheduler().run();
  EXPECT_EQ(pipe.result().scans_skipped, 0);
}

TEST(RouteMtuTest, ReportsEgressNicMtu) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  // ATM-attached host toward another ATM host: the Fore 64 KB MTU.
  EXPECT_EQ(tb.onyx2_juelich().route_mtu(tb.onyx2_gmd().id()),
            net::kMtuAtmFore);
  // Cray toward anything: the HiPPI MTU.
  EXPECT_EQ(tb.t3e600().route_mtu(tb.sp2().id()), net::kMtuHippi);
  // Unknown destination on a host without default route: 0.
  EXPECT_EQ(tb.onyx2_juelich().route_mtu(9999).count(), 0u);
}

TEST(LinkStatsTest, UtilizationAndQueueDepthTracked) {
  des::Scheduler sched;
  net::Link link(sched, "l",
                 {units::BitRate::mbps(100.0), des::SimTime::zero(),
                  units::Bytes{1u << 20}, des::SimTime::zero()});
  link.set_sink([](net::Frame) {});
  // 10 frames of 1 ms each, submitted at once: the link is busy 10 ms.
  for (int i = 0; i < 10; ++i)
    link.submit(net::Frame{{}, 12500, 0, net::kNoHost});
  sched.run();
  // All time since construction was spent transmitting.
  EXPECT_NEAR(link.utilization(), 1.0, 0.01);
  EXPECT_GT(link.mean_queue_bytes(), 0.0);
  EXPECT_EQ(link.drops(), 0u);
}

TEST(ExecHaloTest, HaloExchangeCostsShowUpInParallelRuns) {
  exec::MachineProfile m = exec::MachineProfile::t3e600();
  m.per_pe_overhead = des::SimTime::zero();
  m.region_overhead = des::SimTime::zero();
  exec::WorkEstimate base;
  base.parallel_ops = units::Ops{46e6};  // 1 s at 1 PE
  exec::WorkEstimate with_halo = base;
  with_halo.halo_bytes = units::Bytes{10'000'000};  // 10 MB at 300 MB/s ~ 33 ms
  with_halo.halo_exchanges = 4;
  // At 1 PE no communication happens at all.
  EXPECT_DOUBLE_EQ(exec::time_on(m, base, 1).sec(),
                   exec::time_on(m, with_halo, 1).sec());
  // At 8 PEs the halo adds its transfer time.
  const double delta = exec::time_on(m, with_halo, 8).sec() -
                       exec::time_on(m, base, 8).sec();
  EXPECT_NEAR(delta, 10e6 / 300e6 + 4 * 8e-6, 0.002);
}

TEST(FrameStreamerTest, IntervalStatsMatchAchievedRate) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  net::TcpConfig tcp;
  tcp.mss = tb.options().atm_mtu - units::Bytes{40};
  tcp.recv_buffer = units::Bytes{1u << 20};
  viz::FrameStreamer streamer(tb.scheduler(), tb.onyx2_gmd(),
                              tb.workbench_juelich(), viz::WorkbenchFormat{},
                              viz::RenderModel{}, 20, tcp);
  streamer.start();
  tb.scheduler().run();
  EXPECT_EQ(streamer.frames_delivered(), 20);
  const double fps = streamer.achieved_fps();
  EXPECT_GT(fps, 5.0);
  // Mean inter-frame interval is the reciprocal of the rate.
  EXPECT_NEAR(streamer.frame_interval_ms().mean(), 1000.0 / fps, 5.0);
  // Steady state: low jitter on a dedicated path.
  EXPECT_LT(streamer.frame_interval_ms().stddev(),
            0.2 * streamer.frame_interval_ms().mean());
}

TEST(WanAccountingTest, MetacomputerCountsWanTraffic) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  meta::Metacomputer mc(tb.scheduler());
  meta::MachineSpec a;
  a.max_pes = 8;
  a.frontend = &tb.t3e600();
  meta::MachineSpec b;
  b.max_pes = 8;
  b.frontend = &tb.sp2();
  const int ma = mc.add_machine(a);
  const int mb = mc.add_machine(b);
  net::TcpConfig cfg;
  cfg.mss = tb.options().atm_mtu - units::Bytes{40};
  mc.link_machines(ma, mb, cfg, 7000);
  meta::Communicator comm(mc, {{ma, 0}, {mb, 0}});
  comm.send(0, 1, 0, 10'000);
  comm.send(1, 0, 0, 5'000);
  comm.recv(1, 0, 0, [](const meta::Message&) {});
  comm.recv(0, 1, 0, [](const meta::Message&) {});
  tb.scheduler().run();
  EXPECT_EQ(mc.wan_messages(), 2u);
  EXPECT_EQ(mc.wan_bytes(), 15'000u + 2 * meta::kMetaHeaderBytes);
}

}  // namespace
}  // namespace gtw
