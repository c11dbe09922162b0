#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "apps/climate.hpp"
#include "apps/groundwater.hpp"
#include "apps/meg.hpp"
#include "apps/video.hpp"
#include "linalg/cg.hpp"
#include "meta/communicator.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"
#include "testbed/testbed.hpp"

namespace gtw::apps {
namespace {

// --- groundwater -----------------------------------------------------------

TEST(TraceFlowTest, SolvesToConvergence) {
  TraceFlowSolver solver{TraceConfig{}};
  const auto sol = solver.solve();
  EXPECT_TRUE(sol.converged);
  EXPECT_GT(sol.cg_iterations, 5);
}

TEST(TraceFlowTest, HeadIsBoundedAndMonotoneAlongFlow) {
  TraceConfig cfg;
  cfg.dims = {24, 16, 8};
  const auto sol = TraceFlowSolver(cfg).solve();
  // Maximum principle: head stays within the Dirichlet bounds.
  for (std::size_t i = 0; i < sol.head.size(); ++i) {
    EXPECT_LE(sol.head[i], 1.0 + 1e-6);
    EXPECT_GE(sol.head[i], -1e-6);
  }
  // Mean head decreases along x.
  auto mean_at_x = [&](int x) {
    double acc = 0;
    for (int z = 0; z < cfg.dims.nz; ++z)
      for (int y = 0; y < cfg.dims.ny; ++y) acc += sol.head.at(x, y, z);
    return acc / (cfg.dims.ny * cfg.dims.nz);
  };
  EXPECT_GT(mean_at_x(2), mean_at_x(12));
  EXPECT_GT(mean_at_x(12), mean_at_x(21));
}

TEST(TraceFlowTest, FlowAvoidsLowPermeabilityLens) {
  TraceConfig cfg;
  cfg.dims = {24, 16, 8};
  const auto sol = TraceFlowSolver(cfg).solve();
  // Velocity magnitude in the lens centre is much smaller than in the
  // unobstructed background at the same x.
  auto vmag = [&](int x, int y, int z) {
    const std::size_t i =
        (static_cast<std::size_t>(z) * cfg.dims.ny + y) * cfg.dims.nx + x;
    return std::sqrt(sol.velocity.vx[i] * sol.velocity.vx[i] +
                     sol.velocity.vy[i] * sol.velocity.vy[i] +
                     sol.velocity.vz[i] * sol.velocity.vz[i]);
  };
  EXPECT_LT(vmag(12, 8, 4), 0.5 * vmag(12, 1, 1));
}

// The solve with the operator written out plainly: every face conductivity
// is worked out from its two cells wherever the operator or the RHS uses it.
TraceFlowSolver::Solution plain_solve(const TraceFlowSolver& solver) {
  const TraceConfig& cfg = solver.config();
  const fire::Dims d = cfg.dims;
  const std::size_t n = d.voxels();
  auto idx = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(z) * d.ny + y) * d.nx + x;
  };
  auto face_k = [&](int x0, int y0, int z0, int x1, int y1, int z1) {
    const double a = solver.conductivity(x0, y0, z0);
    const double b = solver.conductivity(x1, y1, z1);
    return 2.0 * a * b / (a + b);
  };
  auto is_dirichlet = [&](int x) { return x == 0 || x == d.nx - 1; };
  auto apply = [&](const linalg::Vector& h, linalg::Vector& out) {
    out.assign(n, 0.0);
    for (int z = 0; z < d.nz; ++z) {
      for (int y = 0; y < d.ny; ++y) {
        for (int x = 0; x < d.nx; ++x) {
          const std::size_t i = idx(x, y, z);
          if (is_dirichlet(x)) {
            out[i] = h[i];
            continue;
          }
          double diag = 0.0, off = 0.0;
          auto couple = [&](int xn, int yn, int zn) {
            if (xn < 0 || xn >= d.nx || yn < 0 || yn >= d.ny || zn < 0 ||
                zn >= d.nz)
              return;
            const double k = face_k(x, y, z, xn, yn, zn);
            diag += k;
            if (is_dirichlet(xn)) return;
            off += k * h[idx(xn, yn, zn)];
          };
          couple(x - 1, y, z);
          couple(x + 1, y, z);
          couple(x, y - 1, z);
          couple(x, y + 1, z);
          couple(x, y, z - 1);
          couple(x, y, z + 1);
          out[i] = diag * h[i] - off;
        }
      }
    }
  };
  linalg::Vector rhs(n, 0.0);
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        const std::size_t i = idx(x, y, z);
        if (is_dirichlet(x)) {
          rhs[i] = x == 0 ? cfg.head_inlet : cfg.head_outlet;
          continue;
        }
        if (x - 1 == 0) rhs[i] += face_k(x, y, z, x - 1, y, z) * cfg.head_inlet;
        if (x + 1 == d.nx - 1)
          rhs[i] += face_k(x, y, z, x + 1, y, z) * cfg.head_outlet;
      }
    }
  }
  const linalg::CgResult cg = linalg::conjugate_gradient(
      apply, rhs, cfg.cg_max_iterations, cfg.cg_tolerance);
  TraceFlowSolver::Solution sol;
  sol.cg_iterations = cg.iterations;
  sol.converged = cg.converged;
  sol.head = fire::VolumeF(d);
  for (std::size_t i = 0; i < n; ++i) sol.head[i] = static_cast<float>(cg.x[i]);
  sol.velocity.dims = d;
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        const double k = solver.conductivity(x, y, z);
        const auto& h = sol.head;
        const double hx =
            (h.clamped(x + 1, y, z) - h.clamped(x - 1, y, z)) / 2.0;
        const double hy =
            (h.clamped(x, y + 1, z) - h.clamped(x, y - 1, z)) / 2.0;
        const double hz =
            (h.clamped(x, y, z + 1) - h.clamped(x, y, z - 1)) / 2.0;
        sol.velocity.vx.push_back(static_cast<float>(-k * hx));
        sol.velocity.vy.push_back(static_cast<float>(-k * hy));
        sol.velocity.vz.push_back(static_cast<float>(-k * hz));
      }
    }
  }
  return sol;
}

void expect_same_floats(const std::vector<float>& got,
                        const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "cell " << i << " is " << got[i] << ", expected " << want[i];
}

TEST(TraceFlowTest, SolveMatchesPlainOperator) {
  // The lens puts cells of both conductivities side by side, so the
  // faces between them differ from the faces beside them.
  TraceConfig cfg;
  cfg.dims = {12, 10, 6};
  const TraceFlowSolver solver(cfg);
  const auto got = solver.solve();
  const auto want = plain_solve(solver);
  EXPECT_EQ(got.cg_iterations, want.cg_iterations);
  EXPECT_EQ(got.converged, want.converged);
  expect_same_floats(got.head.data(), want.head.data());
  expect_same_floats(got.velocity.vx, want.velocity.vx);
  expect_same_floats(got.velocity.vy, want.velocity.vy);
  expect_same_floats(got.velocity.vz, want.velocity.vz);
}

TEST(ParTraceTest, ParticlesMoveDownGradient) {
  TraceConfig cfg;
  cfg.dims = {24, 16, 8};
  const auto sol = TraceFlowSolver(cfg).solve();
  ParTraceTracker tracker(1.0 / cfg.k_background);
  des::Rng rng(1);
  auto particles = tracker.seed(cfg.dims, 50, rng);
  const double x0 = particles[0].x;
  for (int s = 0; s < 20; ++s) tracker.step(particles, sol.velocity);
  double mean_x = 0;
  for (const auto& p : particles) mean_x += p.x;
  mean_x /= 50;
  EXPECT_GT(mean_x, x0 + 0.5);  // net motion toward the outlet
}

TEST(FlowFieldTest, SampleInterpolatesComponents) {
  FlowField f;
  f.dims = {2, 2, 2};
  f.vx = {0, 1, 0, 1, 0, 1, 0, 1};  // vx = x
  f.vy.assign(8, 2.0f);
  f.vz.assign(8, 0.0f);
  double vx, vy, vz;
  f.sample(0.5, 0.5, 0.5, vx, vy, vz);
  EXPECT_NEAR(vx, 0.5, 1e-9);
  EXPECT_NEAR(vy, 2.0, 1e-9);
  EXPECT_NEAR(vz, 0.0, 1e-9);
}

// --- climate ----------------------------------------------------------------

TEST(RegridTest, PreservesConstantField) {
  Field2D src(32, 16, 5.5);
  const Field2D dst = regrid(src, 48, 24);
  for (double v : dst.v) EXPECT_NEAR(v, 5.5, 1e-12);
}

TEST(RegridTest, RoundTripPreservesSmoothFieldMean) {
  Field2D src(64, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 64; ++x)
      src.at(x, y) = 280.0 + 10.0 * std::sin(x * 0.1) * std::cos(y * 0.2);
  const Field2D up = regrid(src, 96, 48);
  const Field2D back = regrid(up, 64, 32);
  EXPECT_NEAR(back.mean(), src.mean(), 0.05);
}

TEST(OceanModelTest, RelaxesTowardForcing) {
  OceanModel ocean{OceanConfig{}};
  AtmosModel atmos{AtmosConfig{}};
  const double t0 = ocean.sst().mean();
  for (int s = 0; s < 50; ++s) {
    const Field2D sst_atm = regrid(ocean.sst(), 96, 48);
    const Field2D flux = atmos.compute_flux(sst_atm);
    ocean.step(regrid(flux, ocean.config().nx, ocean.config().ny));
  }
  const double t1 = ocean.sst().mean();
  EXPECT_NE(t0, t1);
  // Stays in a physically sane band.
  EXPECT_GT(t1, 240.0);
  EXPECT_LT(t1, 320.0);
}

TEST(OceanModelTest, PolarCellsColderThanTropics) {
  OceanModel ocean{OceanConfig{}};
  AtmosModel atmos{AtmosConfig{}};
  for (int s = 0; s < 80; ++s) {
    const Field2D flux = atmos.compute_flux(regrid(ocean.sst(), 96, 48));
    ocean.step(regrid(flux, ocean.config().nx, ocean.config().ny));
  }
  const auto& sst = ocean.sst();
  double pole = 0, equator = 0;
  for (int x = 0; x < sst.nx; ++x) {
    pole += sst.at(x, 0);
    equator += sst.at(x, sst.ny / 2);
  }
  EXPECT_LT(pole, equator - 5.0 * sst.nx);
}

TEST(AtmosModelTest, FluxCoolsHotOcean) {
  AtmosModel atmos{AtmosConfig{}};
  Field2D hot(96, 48, 330.0);
  Field2D cold(96, 48, 260.0);
  const Field2D fh = atmos.compute_flux(hot);
  const Field2D fc = atmos.compute_flux(cold);
  EXPECT_LT(fh.mean(), fc.mean());  // hotter ocean loses more heat
}

// --- MEG / MUSIC -------------------------------------------------------------

TEST(SarvasTest, RadialDipoleIsSilent) {
  const Vec3 pos{0.0, 0.0, 0.05};
  const Vec3 radial_moment{0.0, 0.0, 1e-8};  // along r0
  const Vec3 sensor{0.03, 0.04, 0.11};
  const Vec3 b = sarvas_field(pos, radial_moment, sensor);
  EXPECT_LT(std::abs(b.x) + std::abs(b.y) + std::abs(b.z), 1e-18);
}

TEST(SarvasTest, TangentialDipoleProducesField) {
  const Vec3 pos{0.0, 0.0, 0.05};
  const Vec3 moment{1e-8, 0.0, 0.0};
  const Vec3 sensor{0.03, 0.04, 0.11};
  const Vec3 b = sarvas_field(pos, moment, sensor);
  EXPECT_GT(std::abs(b.x) + std::abs(b.y) + std::abs(b.z), 1e-16);
}

TEST(SarvasTest, FieldFallsOffWithDistance)
{
  const Vec3 pos{0.01, 0.0, 0.05};
  const Vec3 moment{0.0, 1e-8, 0.0};
  const Vec3 near{0.02, 0.02, 0.11};
  const Vec3 far{0.04, 0.04, 0.22};
  auto mag = [&](const Vec3& s) {
    const Vec3 b = sarvas_field(pos, moment, s);
    return std::sqrt(b.x * b.x + b.y * b.y + b.z * b.z);
  };
  EXPECT_GT(mag(near), mag(far));
}

TEST(MusicTest, LocalizesTwoDipoles) {
  MegConfig mc;
  mc.noise_sigma = 5e-15;
  MegSimulator sim(mc);
  const SimulatedDipole d1{{0.03, 0.02, 0.05}, {1e-8, 0.0, 0.0}, 11.0, 0.0};
  const SimulatedDipole d2{{-0.03, -0.01, 0.06}, {0.0, 1e-8, 0.0}, 17.0, 1.0};
  const linalg::Matrix data = sim.simulate({d1, d2});

  MusicScanner scanner(sim.sensors());
  MusicConfig cfg;
  cfg.grid_n = 9;
  const auto peaks = scanner.localize(data, cfg);
  ASSERT_EQ(peaks.size(), 2u);

  auto dist = [](const Vec3& a, const Vec3& b) {
    return std::sqrt((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) +
                     (a.z - b.z) * (a.z - b.z));
  };
  // Each true dipole has a recovered peak within ~1.5 grid cells (~2.6 cm).
  const double cell = 2.0 * cfg.grid_extent / (cfg.grid_n - 1);
  for (const Vec3 truth : {d1.position, d2.position}) {
    double best = 1e9;
    for (const auto& p : peaks) best = std::min(best, dist(p.position, truth));
    EXPECT_LT(best, 1.5 * cell) << "dipole not localized";
  }
}

TEST(MusicTest, MetricPeaksNearTrueSource) {
  MegConfig mc;
  mc.noise_sigma = 1e-15;
  MegSimulator sim(mc);
  const SimulatedDipole d{{0.02, 0.01, 0.05}, {1e-8, 0.0, 0.0}, 10.0, 0.0};
  const linalg::Matrix data = sim.simulate({d});
  MusicScanner scanner(sim.sensors());
  const linalg::Matrix pn = scanner.noise_projector(data, 1);
  const double at_source = scanner.metric(pn, d.position);
  const double away = scanner.metric(pn, Vec3{-0.04, -0.04, 0.03});
  EXPECT_GT(at_source, 10.0 * away);
}

// --- coupled runs over the metacomputer --------------------------------------

struct AppsFixture {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  meta::Metacomputer mc{tb.scheduler()};
  int m_t3e, m_sp2;

  AppsFixture() {
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
    cfg.recv_buffer = units::Bytes{4u << 20};
    mc.link_machines(m_t3e, m_sp2, cfg, 7000);
  }

  std::shared_ptr<meta::Communicator> pair_comm() {
    return std::make_shared<meta::Communicator>(
        mc, std::vector<meta::ProcLoc>{{m_sp2, 0}, {m_t3e, 0}});
  }
};

TEST(GroundwaterCouplingTest, RunsToCompletionWithFieldTransfers) {
  AppsFixture f;
  TraceConfig cfg;
  cfg.dims = {16, 16, 4};
  GroundwaterCoupling run(f.pair_comm(), cfg, /*particles=*/100, /*steps=*/10);
  obs::SpanTracer spans;
  f.tb.scheduler().set_span_hook(&spans);
  run.start();
  f.tb.scheduler().run();
  const CouplingResult& res = run.result();
  EXPECT_EQ(res.steps_completed, 10);
  EXPECT_EQ(res.bytes_per_step, 16u * 16 * 4 * 3 * 4);  // 3 components x f32
  EXPECT_GT(res.burst_mbyte_per_s, 1.0);
  EXPECT_GT(res.elapsed_s, 10 * 0.12);  // includes the compute phases

  // One trace per coupling step; its spans saw both compute states on the
  // two rank lanes and every field transfer between them.
  const obs::SpanFile& file = spans.file();
  EXPECT_EQ(file.traces.size(), 10u);
  const obs::LaneStats stats = obs::lane_stats(file);
  EXPECT_EQ(stats.state_ps.at({0, "flow"}),
            des::SimTime::milliseconds(1000).ps());  // 10 x 100 ms
  EXPECT_EQ(stats.state_ps.at({1, "advect"}),
            des::SimTime::milliseconds(200).ps());  // 10 x 20 ms
  EXPECT_EQ(stats.messages.at({0, 1}), 10u);
  EXPECT_EQ(stats.bytes.at({0, 1}), 10 * res.bytes_per_step);
  EXPECT_EQ(spans.open_spans(), 0u);
  EXPECT_EQ(spans.open_traces(), 0u);
}

TEST(ClimateCouplingTest, ExchangesFieldsAndStaysPhysical) {
  AppsFixture f;
  ClimateCoupling run(f.pair_comm(), OceanConfig{}, AtmosConfig{}, 20);
  run.start();
  f.tb.scheduler().run();
  const ClimateResult& res = run.result();
  EXPECT_EQ(res.steps_completed, 20);
  // 128x64 doubles up + 96x48 doubles down per step.
  EXPECT_EQ(res.bytes_per_step, 128u * 64 * 8 + 96u * 48 * 8);
  EXPECT_GT(res.mean_sst, 240.0);
  EXPECT_LT(res.mean_sst, 320.0);
  EXPECT_GT(res.exchange_latency_s, 0.001);  // crossed the WAN
}

TEST(DistributedMusicTest, MatchesSerialLocalization) {
  AppsFixture f;
  MegConfig mcfg;
  mcfg.noise_sigma = 5e-15;
  MegSimulator sim(mcfg);
  const SimulatedDipole d1{{0.03, 0.02, 0.05}, {1e-8, 0.0, 0.0}, 11.0, 0.0};
  const SimulatedDipole d2{{-0.03, -0.01, 0.06}, {0.0, 1e-8, 0.0}, 17.0, 1.0};
  const linalg::Matrix data = sim.simulate({d1, d2});

  MusicConfig cfg;
  cfg.grid_n = 8;
  MusicScanner scanner(sim.sensors());
  const auto serial = scanner.localize(data, cfg);

  DistributedMusic dist(f.pair_comm(), MusicScanner(sim.sensors()), cfg);
  dist.start(data);
  f.tb.scheduler().run();
  const auto& res = dist.result();
  ASSERT_EQ(res.peaks.size(), serial.size());
  EXPECT_EQ(res.allreduce_rounds, 2);
  EXPECT_GT(res.elapsed_s, 0.0);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(res.peaks[i].position.x, serial[i].position.x, 1e-9);
    EXPECT_NEAR(res.peaks[i].position.y, serial[i].position.y, 1e-9);
    EXPECT_NEAR(res.peaks[i].position.z, serial[i].position.z, 1e-9);
  }
}

TEST(MusicComputeModelTest, VectorMachineShortensTheScan) {
  // pmusic on T3E + T90: giving some ranks a vector-machine evaluation rate
  // reduces the total time vs all-slow ranks, and the allreduce still
  // agrees with the serial result.
  auto run = [](std::vector<double> rates) {
    testbed::Testbed tb{testbed::TestbedOptions{}};
    meta::Metacomputer mc(tb.scheduler());
    meta::MachineSpec a;
    a.name = "T3E";
    a.max_pes = 512;
    a.frontend = &tb.t3e600();
    meta::MachineSpec b;
    b.name = "T90";
    b.max_pes = 10;
    b.frontend = &tb.t90();
    const int ma = mc.add_machine(a);
    const int mb = mc.add_machine(b);
    net::TcpConfig cfg;
    cfg.mss = tb.options().atm_mtu - units::Bytes{40};
    mc.link_machines(ma, mb, cfg, 7000);
    auto comm = std::make_shared<meta::Communicator>(
        mc, std::vector<meta::ProcLoc>{{ma, 0}, {ma, 1}, {mb, 0}, {mb, 1}});

    apps::MegConfig mcfg;
    mcfg.noise_sigma = 5e-15;
    apps::MegSimulator sim(mcfg);
    const apps::SimulatedDipole d{{0.03, 0.02, 0.05}, {1e-8, 0, 0}, 11, 0};
    const linalg::Matrix data = sim.simulate({d});
    apps::MusicConfig c;
    c.grid_n = 8;
    c.n_sources = 1;
    apps::DistributedMusic dist(comm, apps::MusicScanner(sim.sensors()), c,
                                std::move(rates));
    dist.start(data);
    tb.scheduler().run();
    return dist.result();
  };

  // All-MPP: 30k evals/s per PE.  Heterogeneous: two T90 ranks at 200k.
  const auto slow = run({30e3, 30e3, 30e3, 30e3});
  const auto fast = run({30e3, 30e3, 200e3, 200e3});
  EXPECT_GT(slow.compute_s, 0.0);
  // The mixed metacomputer is faster overall (the T90 slabs finish early;
  // the slowest rank still gates, but the balanced split helps).
  EXPECT_LE(fast.elapsed_s, slow.elapsed_s);
  ASSERT_EQ(fast.peaks.size(), 1u);
  ASSERT_EQ(slow.peaks.size(), 1u);
  EXPECT_NEAR(fast.peaks[0].position.x, slow.peaks[0].position.x, 1e-12);
}

// --- video --------------------------------------------------------------------

TEST(D1VideoTest, FeasibleOnOc48) {
  testbed::Testbed tb{testbed::TestbedOptions{testbed::WanEra::kOc48_1998}};
  D1VideoConfig cfg;
  cfg.frames = 100;
  D1VideoSession session(tb.onyx2_gmd(), tb.onyx2_juelich(), cfg);
  session.start();
  tb.scheduler().run();
  const auto rep = session.report();
  EXPECT_EQ(rep.frames_sent, 100u);
  EXPECT_TRUE(rep.feasible);
  EXPECT_NEAR(rep.offered.bps(), 270e6, 1e6);
  EXPECT_LT(rep.jitter_ms, 5.0);
}

TEST(D1VideoTest, InfeasibleOnBWin155) {
  // 270 Mbit/s cannot fit a 155 Mbit/s B-WiN path: heavy loss.
  testbed::Testbed tb{testbed::TestbedOptions{testbed::WanEra::kBWin155}};
  D1VideoConfig cfg;
  cfg.frames = 100;
  D1VideoSession session(tb.onyx2_gmd(), tb.onyx2_juelich(), cfg);
  session.start();
  tb.scheduler().run();
  const auto rep = session.report();
  EXPECT_FALSE(rep.feasible);
  EXPECT_GT(rep.frames_lost, 20u);
}

}  // namespace
}  // namespace gtw::apps
