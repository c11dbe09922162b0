#include "apps/groundwater.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "linalg/cg.hpp"

namespace gtw::apps {

void FlowField::sample(double x, double y, double z, double& ox, double& oy,
                       double& oz) const {
  auto tri = [&](const std::vector<float>& c) {
    const int x0 = std::clamp(static_cast<int>(std::floor(x)), 0, dims.nx - 1);
    const int y0 = std::clamp(static_cast<int>(std::floor(y)), 0, dims.ny - 1);
    const int z0 = std::clamp(static_cast<int>(std::floor(z)), 0, dims.nz - 1);
    const int x1 = std::min(x0 + 1, dims.nx - 1);
    const int y1 = std::min(y0 + 1, dims.ny - 1);
    const int z1 = std::min(z0 + 1, dims.nz - 1);
    const double fx = std::clamp(x - x0, 0.0, 1.0);
    const double fy = std::clamp(y - y0, 0.0, 1.0);
    const double fz = std::clamp(z - z0, 0.0, 1.0);
    auto at = [&](int xi, int yi, int zi) {
      return static_cast<double>(
          c[(static_cast<std::size_t>(zi) * dims.ny + yi) * dims.nx + xi]);
    };
    const double c00 = at(x0, y0, z0) * (1 - fx) + at(x1, y0, z0) * fx;
    const double c10 = at(x0, y1, z0) * (1 - fx) + at(x1, y1, z0) * fx;
    const double c01 = at(x0, y0, z1) * (1 - fx) + at(x1, y0, z1) * fx;
    const double c11 = at(x0, y1, z1) * (1 - fx) + at(x1, y1, z1) * fx;
    const double c0 = c00 * (1 - fy) + c10 * fy;
    const double c1 = c01 * (1 - fy) + c11 * fy;
    return c0 * (1 - fz) + c1 * fz;
  };
  ox = tri(vx);
  oy = tri(vy);
  oz = tri(vz);
}

TraceFlowSolver::TraceFlowSolver(TraceConfig cfg) : cfg_(cfg) {}

double TraceFlowSolver::conductivity(int x, int y, int z) const {
  // Low-permeability ellipsoidal lens in the domain centre.
  const fire::Dims& d = cfg_.dims;
  const double ux = (x - d.nx / 2.0) / (d.nx * 0.2);
  const double uy = (y - d.ny / 2.0) / (d.ny * 0.25);
  const double uz = (z - d.nz / 2.0) / (d.nz * 0.3);
  return (ux * ux + uy * uy + uz * uz < 1.0) ? cfg_.k_lens : cfg_.k_background;
}

TraceFlowSolver::Solution TraceFlowSolver::solve() const {
  const fire::Dims d = cfg_.dims;
  const std::size_t n = d.voxels();
  auto idx = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(z) * d.ny + y) * d.nx + x;
  };
  // Harmonic-mean face conductivity keeps the operator symmetric.
  auto face_k = [&](int x0, int y0, int z0, int x1, int y1, int z1) {
    const double a = conductivity(x0, y0, z0);
    const double b = conductivity(x1, y1, z1);
    return 2.0 * a * b / (a + b);
  };

  // Unknowns: interior in x (Dirichlet at x=0 and x=nx-1); Neumann on the
  // other faces.  We solve for all cells but pin the Dirichlet columns via
  // the RHS.
  linalg::Vector rhs(n, 0.0);
  auto is_dirichlet = [&](int x) { return x == 0 || x == d.nx - 1; };
  auto dirichlet_value = [&](int x) {
    return x == 0 ? cfg_.head_inlet : cfg_.head_outlet;
  };
  auto inside = [&](int x, int y, int z) {
    return x >= 0 && x < d.nx && y >= 0 && y < d.ny && z >= 0 && z < d.nz;
  };

  // Each cell's six face conductivities, worked out once per solve, in the
  // order the operator couples its neighbours: x-1, x+1, y-1, y+1, z-1,
  // z+1.  A no-flux face holds 0.
  std::vector<std::array<double, 6>> face(n);
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        const std::size_t i = idx(x, y, z);
        auto set = [&](std::size_t f, int xn, int yn, int zn) {
          if (inside(xn, yn, zn)) face[i][f] = face_k(x, y, z, xn, yn, zn);
        };
        set(0, x - 1, y, z);
        set(1, x + 1, y, z);
        set(2, x, y - 1, z);
        set(3, x, y + 1, z);
        set(4, x, y, z - 1);
        set(5, x, y, z + 1);
      }
    }
  }

  auto apply = [&](const linalg::Vector& h, linalg::Vector& out) {
    out.assign(n, 0.0);
    for (int z = 0; z < d.nz; ++z) {
      for (int y = 0; y < d.ny; ++y) {
        for (int x = 0; x < d.nx; ++x) {
          const std::size_t i = idx(x, y, z);
          if (is_dirichlet(x)) {
            out[i] = h[i];  // identity row
            continue;
          }
          double diag = 0.0, off = 0.0;
          auto couple = [&](std::size_t f, int xn, int yn, int zn) {
            if (!inside(xn, yn, zn)) return;  // no-flux boundary
            const double k = face[i][f];
            diag += k;
            if (is_dirichlet(xn)) return;  // moved to RHS
            off += k * h[idx(xn, yn, zn)];
          };
          couple(0, x - 1, y, z);
          couple(1, x + 1, y, z);
          couple(2, x, y - 1, z);
          couple(3, x, y + 1, z);
          couple(4, x, y, z - 1);
          couple(5, x, y, z + 1);
          out[i] = diag * h[i] - off;
        }
      }
    }
  };

  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        const std::size_t i = idx(x, y, z);
        if (is_dirichlet(x)) {
          rhs[i] = dirichlet_value(x);
          continue;
        }
        // Dirichlet neighbours contribute to the RHS.
        if (x - 1 == 0)
          rhs[i] += face_k(x, y, z, x - 1, y, z) * cfg_.head_inlet;
        if (x + 1 == d.nx - 1)
          rhs[i] += face_k(x, y, z, x + 1, y, z) * cfg_.head_outlet;
      }
    }
  }

  const linalg::CgResult cg = linalg::conjugate_gradient(
      apply, rhs, cfg_.cg_max_iterations, cfg_.cg_tolerance);

  Solution sol;
  sol.cg_iterations = cg.iterations;
  sol.converged = cg.converged;
  sol.head = fire::VolumeF(d);
  for (std::size_t i = 0; i < n; ++i)
    sol.head[i] = static_cast<float>(cg.x[i]);

  // Darcy velocity v = -K grad h (central differences, clamped edges).
  sol.velocity.dims = d;
  sol.velocity.vx.resize(n);
  sol.velocity.vy.resize(n);
  sol.velocity.vz.resize(n);
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        const std::size_t i = idx(x, y, z);
        const double k = conductivity(x, y, z);
        const double hx =
            (sol.head.clamped(x + 1, y, z) - sol.head.clamped(x - 1, y, z)) /
            2.0;
        const double hy =
            (sol.head.clamped(x, y + 1, z) - sol.head.clamped(x, y - 1, z)) /
            2.0;
        const double hz =
            (sol.head.clamped(x, y, z + 1) - sol.head.clamped(x, y, z - 1)) /
            2.0;
        sol.velocity.vx[i] = static_cast<float>(-k * hx);
        sol.velocity.vy[i] = static_cast<float>(-k * hy);
        sol.velocity.vz[i] = static_cast<float>(-k * hz);
      }
    }
  }
  return sol;
}

std::vector<Particle> ParTraceTracker::seed(const fire::Dims& dims, int count,
                                            des::Rng& rng) const {
  std::vector<Particle> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(Particle{0.5, rng.uniform(1.0, dims.ny - 2.0),
                           rng.uniform(1.0, dims.nz - 2.0), false});
  }
  return out;
}

int ParTraceTracker::step(std::vector<Particle>& particles,
                          const FlowField& field) const {
  int inside = 0;
  // Velocities are tiny (k ~ 1e-4); scale so particles traverse the domain
  // in a practical number of steps while preserving the streamline shape.
  const double scale = dt_;
  for (Particle& p : particles) {
    if (p.exited) continue;
    double vx1, vy1, vz1;
    field.sample(p.x, p.y, p.z, vx1, vy1, vz1);
    // RK2 midpoint.
    const double mx = p.x + 0.5 * scale * vx1;
    const double my = p.y + 0.5 * scale * vy1;
    const double mz = p.z + 0.5 * scale * vz1;
    double vx2, vy2, vz2;
    field.sample(mx, my, mz, vx2, vy2, vz2);
    p.x += scale * vx2;
    p.y += scale * vy2;
    p.z += scale * vz2;
    if (p.x >= field.dims.nx - 1.0 || p.x < 0.0) {
      p.exited = true;
    } else {
      ++inside;
    }
  }
  return inside;
}

GroundwaterCoupling::GroundwaterCoupling(
    std::shared_ptr<meta::Communicator> comm, const TraceConfig& cfg,
    FlowField field, int particles, int steps, CouplingTiming timing)
    : comm_(std::move(comm)),
      field_(std::make_shared<const FlowField>(std::move(field))),
      tracker_(2.0 / cfg.k_background), steps_(steps), timing_(timing) {
  des::Rng rng(42);
  particles_ = tracker_.seed(cfg.dims, particles, rng);
}

void GroundwaterCoupling::start() {
  started_ = comm_->metacomputer().scheduler().now();
  result_.bytes_per_step = field_->bytes();
  coupling_step(0);
}

void GroundwaterCoupling::coupling_step(int step) {
  auto& sched = comm_->metacomputer().scheduler();
  if (step >= steps_) {
    result_.elapsed_s = (sched.now() - started_).sec();
    if (result_.elapsed_s > 0.0) {
      result_.achieved_mbyte_per_s =
          static_cast<double>(result_.bytes_per_step) * steps_ /
          result_.elapsed_s / 1e6;
    }
    if (transfer_accum_s_ > 0.0) {
      result_.burst_mbyte_per_s = static_cast<double>(result_.bytes_per_step) *
                                  steps_ / transfer_accum_s_ / 1e6;
    }
    result_.particles_remaining = 0;
    for (const Particle& p : particles_)
      if (!p.exited) ++result_.particles_remaining;
    return;
  }

  // The step's trace; the solve and advect spans sit on the ranks' lanes.
  des::SpanHook* h = sched.span_hook();
  des::TraceContext prev, ctx;
  std::uint64_t solve = 0;
  if (h != nullptr) {
    prev = h->current();
    ctx = h->mint("apps.groundwater", sched.now());
    solve = h->begin_span(ctx, des::SpanPhase::kCompute, "apps", "flow",
                          sched.now());
    h->set_lane(solve, des::Lane{0});
  }

  // Rank 1 (PARTRACE) posts its receive, then advects when the field lands.
  comm_->recv(1, 0, /*tag=*/step, [this, step, ctx,
                                   &sched](const meta::Message& msg) {
    transfer_accum_s_ += (sched.now() - send_started_).sec();
    std::uint64_t advect = 0;
    if (des::SpanHook* h2 = sched.span_hook(); h2 != nullptr) {
      advect = h2->begin_span(ctx, des::SpanPhase::kCompute, "apps",
                              "advect", sched.now());
      h2->set_lane(advect, des::Lane{1});
    }
    auto field = std::any_cast<std::shared_ptr<const FlowField>>(msg.data);
    sched.schedule_after(timing_.advect_per_step, [this, step, field, ctx,
                                                   advect, &sched]() {
      tracker_.step(particles_, *field);
      if (des::SpanHook* h2 = sched.span_hook(); h2 != nullptr) {
        h2->end_span(advect, sched.now());
        h2->close_trace(ctx, sched.now());
      }
      ++result_.steps_completed;
      coupling_step(step + 1);
    });
  });

  // Rank 0 (TRACE) recomputes the flow, then ships the field.
  sched.schedule_after(timing_.solve_per_step, [this, step, solve, &sched]() {
    if (des::SpanHook* h2 = sched.span_hook(); h2 != nullptr)
      h2->end_span(solve, sched.now());
    send_started_ = sched.now();
    comm_->send(0, 1, /*tag=*/step, field_->bytes(), field_);
  });
  if (h != nullptr) h->adopt(prev);
}

}  // namespace gtw::apps
