// Groundwater application pair (paper section 3, project "Transport of
// solutants in ground water"): TRACE, a ground-water flow simulation (here:
// steady Darcy flow through a heterogeneous conductivity field, solved with
// matrix-free CG) coupled to PARTRACE, a particle tracker advecting
// solutant particles through the computed flow.  In the testbed the 3-D
// water flow field moved from the IBM SP2 (TRACE) to the Cray T3E
// (PARTRACE) every timestep at up to 30 MByte/s.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "des/random.hpp"
#include "fire/volume.hpp"
#include "meta/communicator.hpp"

namespace gtw::apps {

// Cell-centred velocity field of the flow solution.
struct FlowField {
  fire::Dims dims;
  std::vector<float> vx, vy, vz;

  std::uint64_t bytes() const { return (vx.size() + vy.size() + vz.size()) * 4; }
  // Component-wise trilinear sampling at a continuous cell coordinate.
  void sample(double x, double y, double z, double& ox, double& oy,
              double& oz) const;
};

struct TraceConfig {
  fire::Dims dims{32, 32, 8};
  double k_background = 1e-4;   // hydraulic conductivity, m/s
  double k_lens = 1e-6;         // low-permeability lens in the middle
  double head_inlet = 1.0;      // fixed head at x=0 face
  double head_outlet = 0.0;     // fixed head at x=nx-1 face
  int cg_max_iterations = 2000;
  double cg_tolerance = 1e-10;
};

// TRACE stand-in: solves div(K grad h) = 0 and differentiates the head into
// Darcy velocities v = -K grad h.
class TraceFlowSolver {
 public:
  explicit TraceFlowSolver(TraceConfig cfg);

  struct Solution {
    fire::VolumeF head;
    FlowField velocity;
    int cg_iterations = 0;
    bool converged = false;
  };
  Solution solve() const;

  // Conductivity at a cell (background with an embedded lens).
  double conductivity(int x, int y, int z) const;
  const TraceConfig& config() const { return cfg_; }

 private:
  TraceConfig cfg_;
};

struct Particle {
  double x, y, z;
  bool exited = false;
};

// PARTRACE stand-in: RK2 advection of particles through a FlowField.
class ParTraceTracker {
 public:
  explicit ParTraceTracker(double dt = 1.0) : dt_(dt) {}

  // Seed particles on the inlet face.
  std::vector<Particle> seed(const fire::Dims& dims, int count,
                             des::Rng& rng) const;
  // Advance all particles one step; returns how many are still inside.
  int step(std::vector<Particle>& particles, const FlowField& field) const;

 private:
  double dt_;
};

// The coupled metacomputing run: rank 0 (flow machine) recomputes/sends the
// velocity field every coupling step, rank 1 (particle machine) advects.
// Communication is the paper's pattern: one 3-D field transfer per step.
// The flow is steady, so the caller solves it for real once
// (TraceFlowSolver::solve() with the same TraceConfig) and hands in the
// velocity field; the modeled solve_per_step stands for the real
// application's per-step recomputation.
// While a span hook is installed, each step is a trace: the solve (state
// "flow") on lane 0, the field transfer, then "advect" on lane 1.
struct CouplingResult {
  int steps_completed = 0;
  std::uint64_t bytes_per_step = 0;
  double elapsed_s = 0.0;
  // Wall-rate including the compute phases of both codes.
  double achieved_mbyte_per_s = 0.0;
  // Transfer burst rate (field bytes / mean transfer time) — the number the
  // paper's "up to 30 MByte/s" requirement refers to.
  double burst_mbyte_per_s = 0.0;
  int particles_remaining = 0;
};

// Modeled per-step compute phases (the solve/advect run once for real on
// this host; their simulated durations on the 1999 machines come from
// these constants).
struct CouplingTiming {
  des::SimTime solve_per_step = des::SimTime::milliseconds(100);
  des::SimTime advect_per_step = des::SimTime::milliseconds(20);
};

class GroundwaterCoupling {
 public:
  GroundwaterCoupling(std::shared_ptr<meta::Communicator> comm,
                      const TraceConfig& cfg, FlowField field, int particles,
                      int steps, CouplingTiming timing = {});

  // Schedules the coupled run; inspect result() after the scheduler drains.
  void start();
  const CouplingResult& result() const { return result_; }

 private:
  void coupling_step(int step);

  std::shared_ptr<meta::Communicator> comm_;
  std::shared_ptr<const FlowField> field_;
  ParTraceTracker tracker_;
  std::vector<Particle> particles_;
  int steps_;
  CouplingTiming timing_;
  des::SimTime started_;
  des::SimTime send_started_;
  double transfer_accum_s_ = 0.0;
  CouplingResult result_;
};

}  // namespace gtw::apps
