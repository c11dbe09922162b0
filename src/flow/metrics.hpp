// Per-stage metrics registry for the dataflow engine: every StageGraph
// feeds one of these, so any graph gets throughput / occupancy / queue-depth
// / drop accounting for free (the profile side of the VAMPIR tooling,
// without needing a trace attached).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "des/time.hpp"

namespace gtw::flow {

struct StageMetrics {
  std::string name;
  int concurrency = 1;            // 0 = unlimited

  std::uint64_t items_in = 0;     // bodies started
  std::uint64_t items_out = 0;    // bodies completed
  // Stage queues never drop, so this reads 0; it stays because the OBS
  // metrics artifacts print <prefix>.stage.<stage>.dropped.
  std::uint64_t dropped = 0;
  std::size_t queue_depth = 0;    // current backlog
  std::size_t queue_peak = 0;     // high-water backlog
  des::SimTime busy;              // integrated body time over all slots
  des::SimTime first_start;
  des::SimTime last_finish;
  bool started = false;

  // Sustained completion rate over the stage's active span.
  double throughput_per_s() const;
  // Busy time over the active span; exceeds 1 when concurrent slots overlap.
  double occupancy() const;
};

class MetricsRegistry {
 public:
  StageMetrics& add_stage(const std::string& name, int concurrency);
  StageMetrics& stage(int i) { return stages_[static_cast<std::size_t>(i)]; }
  const StageMetrics& stage(int i) const {
    return stages_[static_cast<std::size_t>(i)];
  }
  const std::vector<StageMetrics>& stages() const { return stages_; }

  // Printable per-stage profile table plus the graph totals.
  std::string report() const;

  // Graph-level accounting.
  std::uint64_t pushed = 0;             // items offered to the graph
  std::uint64_t admitted = 0;           // items that entered stage 0
  std::uint64_t admission_dropped = 0;  // superseded while awaiting admission
  std::uint64_t completed = 0;          // items that left the last stage
  std::size_t admission_peak = 0;

  // Graceful-degradation accounting (StageGraph::set_degraded, usually
  // driven by a net::FaultPlan observer during scripted outages).
  std::uint64_t degraded_spans = 0;     // times degradation was entered
  std::uint64_t degraded_dropped = 0;   // items superseded while degraded
  std::uint64_t recoveries = 0;         // completions observed post-outage
  des::SimTime degraded_time;           // accumulated degraded span
  des::SimTime last_recovery_time;      // outage end -> next completion

 private:
  std::vector<StageMetrics> stages_;
};

}  // namespace gtw::flow
