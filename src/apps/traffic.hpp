// Section 5 extension project: "distributed traffic simulation and
// visualization" between the DLR, the University of Cologne and the GMD.
//
// The era's canonical model — developed at Cologne/Jülich — is the
// Nagel-Schreckenberg cellular automaton.  We implement the classic
// single-lane periodic NaSch CA with the usual four rules (accelerate,
// brake to gap, random dawdle, move), a multi-segment road network, and a
// remote-visualization stream: per step, an occupancy frame is shipped
// across the testbed to the visualization site, the same produce-here /
// render-there split as the fMRI project.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/random.hpp"
#include "flow/stage.hpp"
#include "net/datagram.hpp"
#include "net/host.hpp"

namespace gtw::apps {

struct NaschConfig {
  int cells = 1000;          // road length, cells of 7.5 m
  int v_max = 5;             // cells per step (= 135 km/h)
  double density = 0.15;     // initial vehicle density
  double dawdle_p = 0.25;    // random braking probability
  std::uint64_t seed = 99;
};

class NaschRoad {
 public:
  explicit NaschRoad(NaschConfig cfg);

  void step();

  int vehicles() const { return static_cast<int>(pos_.size()); }
  int cells() const { return cfg_.cells; }
  // Mean speed in cells/step over the current state.
  double mean_speed() const;
  // Vehicles passing the start-of-road detector per step, averaged since
  // construction (the fundamental-diagram "flow" axis).
  double flow() const;
  int steps() const { return steps_; }

  // Occupancy bitmap of the road (1 byte per cell) — the visualization
  // payload.
  std::vector<std::uint8_t> occupancy() const;

 private:
  NaschConfig cfg_;
  std::vector<int> pos_;   // sorted vehicle positions
  std::vector<int> vel_;
  des::Rng rng_;
  int steps_ = 0;
  std::uint64_t detector_count_ = 0;
};

// Steady-state flow for a given density (fresh road, warm-up + measure) —
// used to reproduce the fundamental diagram.
double nasch_flow(double density, int cells = 1000, int warmup = 200,
                  int measure = 400, std::uint64_t seed = 7);

// Distributed run: the CA advances on the simulation host (DLR); every
// step's occupancy frame streams to the visualization host (Cologne or the
// GMD) as a datagram.  Reports the achievable frame cadence.
struct TrafficVizResult {
  int steps_simulated = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frame_bytes = 0;
  double elapsed_s = 0.0;
  double frames_per_s = 0.0;
  double final_mean_speed = 0.0;
};

class DistributedTrafficViz {
 public:
  DistributedTrafficViz(net::Host& sim_host, net::Host& viz_host,
                        NaschConfig cfg, int steps,
                        des::SimTime step_interval = des::SimTime::milliseconds(100),
                        std::uint16_t port = 7300);

  void start();
  const TrafficVizResult& result() const { return result_; }

  const flow::MetricsRegistry& metrics() const { return graph_.metrics(); }
  // For failure wiring (net::FaultPlan observers, degraded-mode tests).
  flow::StageGraph& graph() { return graph_; }

 private:
  net::Host& sim_host_;
  net::HostId viz_id_;
  std::uint16_t port_;
  NaschRoad road_;
  net::DatagramSocket tx_;
  net::DatagramSocket rx_;
  // Two-stage flow graph per CA step: advance the road, ship the frame.
  flow::StageGraph graph_;
  flow::PeriodicSource source_;
  des::SimTime started_;
  TrafficVizResult result_;
};

}  // namespace gtw::apps
