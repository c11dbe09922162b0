// The distributed realtime-fMRI pipeline of Figure 2: MRI scanner ->
// RT-server on the scanner front-end -> Cray T3E (processing) -> RT-client
// (2-D display), all over the simulated testbed.
//
// Two orchestration modes:
//  - kSequential: the paper's implementation — "a new image is requested
//    from the RT-server only after the processing and displaying of the
//    previous one is completed", so throughput is the *sum* of the client
//    and T3E delays (2.7 s in the paper's example);
//  - kPipelined: the improvement the paper points out it does NOT do —
//    stages overlap, throughput becomes the *maximum* stage time.  This is
//    the A2 ablation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/scheduler.hpp"
#include "exec/machine.hpp"
#include "fire/analysis.hpp"
#include "fire/workload.hpp"
#include "flow/graph.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "units/units.hpp"

namespace gtw::fire {

// Raw-image supplier for scan index t (the scanner module provides one via
// FmriSeriesGenerator; tests can inject synthetic volumes directly).
using ImageSource = std::function<VolumeF(int)>;

enum class PipelineMode { kSequential, kPipelined };
enum class ProcessingSite { kRemoteT3e, kLocalWorkstation };

struct PipelineConfig {
  double tr_s = 3.0;    // scanner repetition time
  int n_scans = 20;
  int t3e_pes = 256;
  PipelineMode mode = PipelineMode::kSequential;
  ProcessingSite site = ProcessingSite::kRemoteT3e;

  // Module switches ("the use of each module is optional and can be
  // controlled during runtime via the GUI").
  bool enable_filter = true;
  bool enable_motion = true;
  bool enable_rvo = true;
  bool enable_detrend = true;

  FireWorkParams work;
  exec::MachineProfile t3e = exec::MachineProfile::t3e600();
  exec::MachineProfile workstation = exec::MachineProfile::workstation();

  // Paper-measured constants outside our models: the scanner needs ~1.5 s
  // to reconstruct and hand a 64x64x16 image to the RT-server, the client
  // needs ~0.6 s from data arrival to pixels on screen, and FIRE's RPC
  // control handshakes cost ~0.9 s per image on top of the data transfers
  // (together with them: the paper's 1.1 s "transfers and control").
  des::SimTime scan_to_server = des::SimTime::seconds(1.5);
  des::SimTime client_display = des::SimTime::seconds(0.6);
  des::SimTime rpc_overhead = des::SimTime::seconds(0.9);

  units::Bytes image_bytes{64 * 64 * 16 * 2};       // raw 16-bit voxels
  units::Bytes result_bytes{2 * 64 * 64 * 16 * 2};  // anat + functional
};

struct ScanRecord {
  int index = 0;
  des::SimTime acquired;      // scan finished in the magnet
  des::SimTime at_server;     // raw image at the RT-server
  des::SimTime sent;          // transfer toward the compute site started
  des::SimTime at_compute;    // image at the T3E (or client, local mode)
  des::SimTime processed;     // all enabled modules done
  des::SimTime at_client;     // results back at the RT-client
  des::SimTime displayed;     // on the 2-D GUI
};

struct PipelineResult {
  std::vector<ScanRecord> records;
  // Means over the steady-state scans (the first is warm-up).
  double mean_total_delay_s = 0.0;      // acquired -> displayed
  double mean_transfer_control_s = 0.0; // at_server -> at_compute -> at_client
                                        // minus compute (paper's 1.1 s item)
  double mean_compute_s = 0.0;
  double sustained_period_s = 0.0;      // steady-state display interval
  // Smallest scanner repetition time the pipeline keeps up with.
  double min_safe_tr_s = 0.0;
  // Scans the sequential client skipped because it was still busy when a
  // newer image superseded them (0 when the pipeline keeps up with TR).
  int scans_skipped = 0;
};

class FmriPipeline {
 public:
  struct Hosts {
    net::Host* scanner_frontend = nullptr;
    net::Host* compute_frontend = nullptr;  // T3E front-end
    net::Host* client = nullptr;
  };

  FmriPipeline(des::Scheduler& sched, Hosts hosts, PipelineConfig cfg,
               ImageSource source = nullptr, AnalysisEngine* engine = nullptr);

  // Schedules all scans; run the scheduler, then collect results.
  void start();
  PipelineResult result() const;

  // Compute time per image for the enabled modules at `pes` PEs.
  des::SimTime compute_time(int pes) const;

  // Per-stage throughput/occupancy/queue accounting from the flow engine.
  const flow::MetricsRegistry& metrics() const { return graph_.metrics(); }

  // The underlying flow graph, so callers can wire failure handling — a
  // net::FaultPlan observer toggling set_degraded during scripted WAN
  // outages, custom drop accounting, etc.
  flow::StageGraph& graph() { return graph_; }

 private:
  static flow::GraphConfig graph_config(const PipelineConfig& cfg);
  void build_graph();
  void on_image_at_server(int index);

  des::Scheduler& sched_;
  Hosts hosts_;
  PipelineConfig cfg_;
  ImageSource source_;
  AnalysisEngine* engine_;

  std::unique_ptr<net::TcpConnection> to_compute_;   // server -> T3E
  std::unique_ptr<net::TcpConnection> to_client_;    // T3E -> client

  // Both orchestration modes are admission policies on the same 4-stage
  // graph: sequential = one scan in flight with newest-wins admission,
  // pipelined = free admission with the transfer and compute stages each
  // serialised at concurrency 1.
  flow::StageGraph graph_;
  std::vector<ScanRecord> records_;
};

}  // namespace gtw::fire
