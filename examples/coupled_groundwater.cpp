// Coupled-fields metacomputing: the TRACE (flow, on the SP2) / PARTRACE
// (particles, on the T3E) pairing from section 3 of the paper, run over the
// meta communication library across the simulated testbed, with a
// VAMPIR-style trace of the exchange recorded and rendered.
//
//   $ ./coupled_groundwater
#include <cstdio>
#include <memory>

#include "apps/groundwater.hpp"
#include "meta/communicator.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"
#include "testbed/testbed.hpp"

int main() {
  using namespace gtw;

  testbed::Testbed tb{testbed::TestbedOptions{}};
  meta::Metacomputer mc(tb.scheduler());

  meta::MachineSpec sp2spec;
  sp2spec.name = "SP2";
  sp2spec.max_pes = 64;
  sp2spec.frontend = &tb.sp2();
  meta::MachineSpec t3espec;
  t3espec.name = "T3E";
  t3espec.max_pes = 512;
  t3espec.frontend = &tb.t3e600();
  const int m_sp2 = mc.add_machine(sp2spec);
  const int m_t3e = mc.add_machine(t3espec);

  net::TcpConfig tcp;
  tcp.mss = tb.options().atm_mtu - units::Bytes{40};
  tcp.recv_buffer = units::Bytes{1u << 20};
  mc.link_machines(m_sp2, m_t3e, tcp, 7000);

  auto comm = std::make_shared<meta::Communicator>(
      mc, std::vector<meta::ProcLoc>{{m_sp2, 0}, {m_t3e, 0}});

  // Trace the run like VAMPIR would: the two ranks are the span lanes.
  obs::SpanTracer spans;
  tb.scheduler().set_span_hook(&spans);

  apps::TraceConfig cfg;
  cfg.dims = {64, 64, 16};  // 64x64x16 x 3 components x f32 = 3.1 MB/step
  std::printf("solving Darcy flow on a %dx%dx%d grid (SP2) and advecting "
              "400 particles (T3E), coupled every step...\n", cfg.dims.nx,
              cfg.dims.ny, cfg.dims.nz);

  apps::GroundwaterCoupling run(comm, cfg, /*particles=*/400, /*steps=*/15);
  run.start();
  tb.scheduler().run();

  const apps::CouplingResult& res = run.result();
  std::printf("completed %d coupling steps, %.2f MB per field transfer\n",
              res.steps_completed,
              static_cast<double>(res.bytes_per_step) / 1e6);
  std::printf("field transfer burst rate: %.1f MByte/s (paper requirement: "
              "up to 30 MByte/s; the SP2 I/O limit is ~32 MByte/s)\n",
              res.burst_mbyte_per_s);
  std::printf("sustained incl. compute: %.1f MByte/s\n",
              res.achieved_mbyte_per_s);
  std::printf("particles still in the domain: %d / 400\n",
              res.particles_remaining);

  std::printf("\nVAMPIR-style summary:\n%s",
              obs::profile(spans.file()).c_str());
  std::printf("\ntimeline (f = flow solve, a = advect):\n%s",
              obs::gantt(spans.file(), 64).c_str());
  return 0;
}
