// E4 — the application communication requirements of section 3, replayed on
// the three WAN eras:
//   * ground water: 3-D flow field from SP2 (TRACE) to T3E (PARTRACE) every
//     timestep, up to 30 MByte/s;
//   * climate: 2-D surface exchange every timestep, ~1 MByte bursts;
//   * MEG/pmusic: low volume but latency sensitive;
//   * multimedia: 270 Mbit/s uncompressed D1 video, alone on each era and,
//     on OC-12, beside greedy TCP with and without per-VC CBR shaping.
// Each row shows whether the era sustains the application's requirement.
#include <cstdio>
#include <memory>

#include "apps/climate.hpp"
#include "apps/cocolib.hpp"
#include "apps/groundwater.hpp"
#include "apps/meg.hpp"
#include "apps/video.hpp"
#include "meta/communicator.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace gtw;

struct Rig {
  testbed::Testbed tb;
  meta::Metacomputer mc;
  int m_t3e, m_sp2;

  explicit Rig(testbed::WanEra era)
      : tb(testbed::TestbedOptions{era}), mc(tb.scheduler()) {
    meta::MachineSpec t3e;
    t3e.name = "T3E";
    t3e.max_pes = 512;
    t3e.frontend = &tb.t3e600();
    meta::MachineSpec sp2;
    sp2.name = "SP2";
    sp2.max_pes = 64;
    sp2.frontend = &tb.sp2();
    m_t3e = mc.add_machine(t3e);
    m_sp2 = mc.add_machine(sp2);
    net::TcpConfig cfg;
    cfg.mss = tb.options().atm_mtu - units::Bytes{40};
    cfg.recv_buffer = units::Bytes{1u << 20};
    mc.link_machines(m_t3e, m_sp2, cfg, 7000);
  }

  std::shared_ptr<meta::Communicator> pair() {
    return std::make_shared<meta::Communicator>(
        mc, std::vector<meta::ProcLoc>{{m_sp2, 0}, {m_t3e, 0}});
  }
};

const char* era_name(testbed::WanEra era) {
  switch (era) {
    case testbed::WanEra::kBWin155: return "B-WiN 155";
    case testbed::WanEra::kOc12_1997: return "OC-12 622";
    case testbed::WanEra::kOc48_1998: return "OC-48 2400";
  }
  return "?";
}

void print_e4() {
  std::printf("== E4: testbed applications vs WAN generation ==\n\n");

  std::printf("-- ground water (TRACE->PARTRACE 3-D field per step; paper: "
              "up to 30 MByte/s) --\n");
  apps::TraceConfig flow_cfg;
  flow_cfg.dims = {64, 64, 16};  // 3.1 MB field per step
  // The flow does not depend on the WAN: one solve serves every era.
  const apps::FlowField field =
      apps::TraceFlowSolver(flow_cfg).solve().velocity;
  for (auto era : {testbed::WanEra::kBWin155, testbed::WanEra::kOc12_1997,
                   testbed::WanEra::kOc48_1998}) {
    Rig rig(era);
    apps::GroundwaterCoupling run(rig.pair(), flow_cfg, field, 200, 12);
    run.start();
    rig.tb.scheduler().run();
    const auto& r = run.result();
    std::printf("  %-11s: %6.1f MByte/s transfer burst, %5.1f sustained "
                "(%.1f MB/step)%s\n",
                era_name(era), r.burst_mbyte_per_s, r.achieved_mbyte_per_s,
                static_cast<double>(r.bytes_per_step) / 1e6,
                r.burst_mbyte_per_s >= 30.0 ? "  [meets 30 MB/s]" : "");
  }

  std::printf("\n-- climate (2-D surface exchange per step; paper: ~1 MByte "
              "bursts) --\n");
  for (auto era : {testbed::WanEra::kBWin155, testbed::WanEra::kOc12_1997,
                   testbed::WanEra::kOc48_1998}) {
    Rig rig(era);
    apps::OceanConfig ocfg;
    ocfg.nx = 256;
    ocfg.ny = 128;
    apps::AtmosConfig acfg;
    acfg.nx = 192;
    acfg.ny = 96;
    apps::ClimateCoupling run(rig.pair(), ocfg, acfg, 15);
    run.start();
    rig.tb.scheduler().run();
    const auto& r = run.result();
    std::printf("  %-11s: %5.1f ms per exchange (%.2f MByte/step, mean SST "
                "%.1f K)\n", era_name(era), r.exchange_latency_s * 1e3,
                static_cast<double>(r.bytes_per_step) / 1e6, r.mean_sst);
  }

  std::printf("\n-- MEG / pmusic (distributed MUSIC scan; latency bound) --\n");
  for (auto era : {testbed::WanEra::kBWin155, testbed::WanEra::kOc48_1998}) {
    Rig rig(era);
    apps::MegConfig mcfg;
    mcfg.noise_sigma = 5e-15;
    apps::MegSimulator sim(mcfg);
    const apps::SimulatedDipole d1{{0.03, 0.02, 0.05}, {1e-8, 0, 0}, 11, 0};
    const apps::SimulatedDipole d2{{-0.03, -0.01, 0.06}, {0, 1e-8, 0}, 17, 1};
    const linalg::Matrix data = sim.simulate({d1, d2});
    apps::MusicConfig cfg;
    cfg.grid_n = 8;
    apps::DistributedMusic dist(rig.pair(), apps::MusicScanner(sim.sensors()),
                                cfg);
    dist.start(data);
    rig.tb.scheduler().run();
    std::printf("  %-11s: %2d allreduce rounds, %.2f ms communication\n",
                era_name(era), dist.result().allreduce_rounds,
                dist.result().elapsed_s * 1e3);
  }

  std::printf("\n-- MetaCISPAR / COCOLIB (coupled fluid-structure codes; "
              "paper: 'depends on the coupled application') --\n");
  for (auto era : {testbed::WanEra::kBWin155, testbed::WanEra::kOc48_1998}) {
    Rig rig(era);
    const apps::coco::InterfaceMesh fluid_mesh =
        apps::coco::InterfaceMesh::uniform(129);
    const apps::coco::InterfaceMesh wall_mesh =
        apps::coco::InterfaceMesh::uniform(97);
    apps::coco::DistributedFsi fsi(rig.pair(), fluid_mesh, wall_mesh,
                                   apps::coco::FsiConfig{});
    fsi.start();
    rig.tb.scheduler().run();
    const auto& r = fsi.result();
    std::printf("  %-11s: %s in %d interface iterations, %.1f KB exchanged, "
                "%.1f ms wall\n", era_name(era),
                r.converged ? "converged" : "NOT converged", r.iterations,
                static_cast<double>(r.bytes_exchanged) / 1e3,
                r.elapsed_s * 1e3);
  }

  std::printf("\n-- multimedia (uncompressed D1 video, 270 Mbit/s CBR) --\n");
  for (auto era : {testbed::WanEra::kBWin155, testbed::WanEra::kOc12_1997,
                   testbed::WanEra::kOc48_1998}) {
    testbed::Testbed tb{testbed::TestbedOptions{era}};
    apps::D1VideoConfig cfg;
    cfg.frames = 150;
    apps::D1VideoSession session(tb.onyx2_gmd(), tb.onyx2_juelich(), cfg);
    session.start();
    tb.scheduler().run();
    const auto rep = session.report();
    std::printf("  %-11s: %5.1f Mbit/s delivered, %3llu/%llu frames lost, "
                "jitter %.2f ms  [%s]\n", era_name(era), rep.goodput.mbps(),
                static_cast<unsigned long long>(rep.frames_lost),
                static_cast<unsigned long long>(rep.frames_sent),
                rep.jitter_ms, rep.feasible ? "feasible" : "NOT feasible");
  }

  // Per-VC CBR shaping: the video shares the GMD switch's WAN egress with a
  // greedy TCP transfer.  Shaping the TCP sender's VC leaves the video its
  // headroom (the scenario ShapingTest.ShapingProtectsVideoFromCrossTraffic
  // asserts).
  std::printf("  OC-12 1997, video onyx2_gmd->workbench_juelich (60 frames) "
              "beside 64 MiB TCP e500->onyx2_juelich:\n");
  for (const bool shaped : {false, true}) {
    testbed::Testbed tb{testbed::TestbedOptions{testbed::WanEra::kOc12_1997}};
    if (shaped)
      tb.shape_host_vc("e500", "onyx2_juelich", units::BitRate::mbps(250.0));
    apps::D1VideoSession video(
        tb.onyx2_gmd(), tb.workbench_juelich(),
        apps::D1VideoConfig{units::BitRate::mbps(270.0), 25.0, 60}, 7700);
    video.start();
    net::TcpConfig cfg;
    cfg.mss = net::kMtuAtmFore - units::Bytes{40};
    cfg.recv_buffer = units::Bytes{2u << 20};
    net::TcpConnection bulk(tb.e500(), tb.onyx2_juelich(), 7800, 7801, cfg);
    des::SimTime bulk_done;
    bulk.send(0, units::Bytes{64u << 20}, {},
              [&](const std::any&, des::SimTime t) { bulk_done = t; });
    tb.scheduler().run();
    const auto rep = video.report();
    std::printf("    %-25s: %3llu/%llu frames lost, jitter %.2f ms, TCP "
                "done at %.3f s  [%s]\n",
                shaped ? "e500 VC shaped 250 Mbit/s" : "unshaped",
                static_cast<unsigned long long>(rep.frames_lost),
                static_cast<unsigned long long>(rep.frames_sent),
                rep.jitter_ms, bulk_done.sec(),
                rep.feasible ? "feasible" : "NOT feasible");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_e4();
  return 0;
}
