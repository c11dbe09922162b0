// E5 — section 5 of the paper, "Extensions of the Testbed": the dark fibre
// to the DLR and the University of Cologne (distributed traffic simulation
// and visualization; distributed virtual TV-production) and the 622 Mbit/s
// link to the University of Bonn (multiscale molecular dynamics).  The
// paper gives no numbers for these — this bench demonstrates feasibility
// of each planned project on the extended topology, plus the traffic
// model's fundamental diagram (the series the traffic community plots).
#include <cstdio>
#include <memory>

#include "apps/groundwater.hpp"
#include "apps/moldyn.hpp"
#include "apps/traffic.hpp"
#include "apps/video.hpp"
#include "meta/communicator.hpp"
#include "testbed/extensions.hpp"

namespace {

using namespace gtw;

void print_e5() {
  std::printf("== E5: testbed extensions (section 5) ==\n");

  std::printf("\n-- Nagel-Schreckenberg fundamental diagram (flow vs "
              "density, v_max=5, p=0.25) --\n");
  std::printf("%8s | %8s\n", "density", "flow");
  for (double rho : {0.05, 0.08, 0.10, 0.12, 0.15, 0.20, 0.30, 0.50, 0.70}) {
    std::printf("%8.2f | %8.3f\n", rho, apps::nasch_flow(rho));
  }

  std::printf("\n-- distributed traffic simulation + visualization (DLR -> "
              "Cologne over the dark fibre) --\n");
  {
    testbed::ExtendedTestbed tb;
    apps::NaschConfig cfg;
    cfg.cells = 100000;  // 750 km motorway network
    apps::DistributedTrafficViz run(tb.dlr_traffic(), tb.cologne_viz(), cfg,
                                    /*steps=*/50);
    run.start();
    tb.scheduler().run();
    const auto& res = run.result();
    std::printf("  %d CA steps, %llu occupancy frames of %.1f KB delivered, "
                "%.1f frames/s\n", res.steps_simulated,
                static_cast<unsigned long long>(res.frames_delivered),
                static_cast<double>(res.frame_bytes) / 1e3, res.frames_per_s);
  }

  std::printf("\n-- distributed virtual TV production (two D1 studio feeds "
              "into the GMD) --\n");
  {
    testbed::ExtendedTestbed tb;
    apps::D1VideoConfig cfg;
    cfg.frames = 100;
    apps::D1VideoSession a(tb.cologne_viz(), tb.e500(), cfg, 7500);
    apps::D1VideoSession b(tb.dlr_traffic(), tb.e500(), cfg, 7600);
    a.start();
    b.start();
    tb.scheduler().run();
    std::printf("  feed Cologne->GMD: %.1f Mbit/s, %s\n",
                a.report().goodput.mbps(),
                a.report().feasible ? "clean" : "LOSSY");
    std::printf("  feed DLR->GMD    : %.1f Mbit/s, %s\n",
                b.report().goodput.mbps(),
                b.report().feasible ? "clean" : "LOSSY");
  }

  std::printf("\n-- lithospheric fluids (Bonn <-> GMD: crustal Darcy flow "
              "coupled to particle transport) --\n");
  {
    testbed::ExtendedTestbed tb;
    meta::Metacomputer mc(tb.scheduler());
    meta::MachineSpec bonn;
    bonn.name = "Bonn";
    bonn.max_pes = 32;
    bonn.frontend = &tb.bonn_md();
    meta::MachineSpec gmd;
    gmd.name = "GMD";
    gmd.max_pes = 8;
    gmd.frontend = &tb.e500();
    const int mb = mc.add_machine(bonn);
    const int mg = mc.add_machine(gmd);
    net::TcpConfig tcp;
    tcp.mss = tb.options().atm_mtu - units::Bytes{40};
    mc.link_machines(mb, mg, tcp, 7450);
    auto comm = std::make_shared<meta::Communicator>(
        mc, std::vector<meta::ProcLoc>{{mb, 0}, {mg, 0}});

    apps::TraceConfig cfg;
    cfg.dims = {32, 32, 16};
    cfg.k_background = 1e-7;  // crustal rock, orders below an aquifer
    cfg.k_lens = 1e-9;        // impermeable intrusion
    apps::GroundwaterCoupling run(comm, cfg, 150, 10);
    run.start();
    tb.scheduler().run();
    const auto& r = run.result();
    std::printf("  %d coupling steps over the 622 Mbit/s Bonn link, "
                "%.1f MByte/s field bursts, %d tracers in the domain\n",
                r.steps_completed, r.burst_mbyte_per_s,
                r.particles_remaining);
  }

  std::printf("\n-- multiscale molecular dynamics (Bonn <-> GMD, "
              "622 Mbit/s) --\n");
  {
    testbed::ExtendedTestbed tb;
    meta::Metacomputer mc(tb.scheduler());
    meta::MachineSpec bonn;
    bonn.name = "Bonn";
    bonn.max_pes = 32;
    bonn.frontend = &tb.bonn_md();
    meta::MachineSpec gmd;
    gmd.name = "GMD";
    gmd.max_pes = 8;
    gmd.frontend = &tb.e500();
    const int mb = mc.add_machine(bonn);
    const int mg = mc.add_machine(gmd);
    net::TcpConfig tcp;
    tcp.mss = tb.options().atm_mtu - units::Bytes{40};
    mc.link_machines(mb, mg, tcp, 7400);
    auto comm = std::make_shared<meta::Communicator>(
        mc, std::vector<meta::ProcLoc>{{mb, 0}, {mg, 0}});

    apps::LjConfig cfg;
    cfg.n_particles = 144;
    cfg.box = 22.0;
    cfg.temperature = 1.0;
    apps::MultiscaleMd run(comm, cfg, /*coupling_steps=*/40,
                           /*md_per_coupling=*/5, /*target_t=*/0.5);
    run.start();
    tb.scheduler().run();
    const auto& res = run.result();
    std::printf("  %d coupling steps; T %.2f -> %.2f (coarse target 0.50); "
                "%.2f ms per boundary exchange\n", res.steps_completed, 1.0,
                res.final_temperature, res.mean_exchange_ms);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_e5();
  return 0;
}
