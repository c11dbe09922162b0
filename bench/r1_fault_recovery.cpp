// R1 — fault injection and recovery.  The testbed was not a clean machine
// room (the OC-48 line "showed stability problems ... related to signal
// attenuation and timing"); this bench scripts WAN outages of increasing
// duration against the DES clock and measures what recovery costs:
//   - a bulk TCP transfer across the cut (stall, retransmits, timeouts);
//   - the realtime-fMRI pipeline running degraded through the outage
//     (frames superseded, recovery time once the line heals).
// Deterministic by construction: the same script replays bit-identically,
// so BENCH_r1_fault_recovery.json is byte-stable across runs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "check/attach.hpp"
#include "check/monitor.hpp"
#include "fire/pipeline.hpp"
#include "net/fault.hpp"
#include "net/tcp.hpp"
#include "obs/exporter.hpp"
#include "obs/instrument.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace gtw;

struct TcpRow {
  double transfer_s = 0.0;
  double goodput_mbps = 0.0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t outage_drops = 0;
};

// 128 MB gateway-to-gateway transfer; the WAN fibre is cut 500 ms in.
TcpRow run_tcp(double outage_s) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  net::FaultPlan plan(tb.scheduler());
  if (outage_s > 0.0) {
    plan.link_down(tb.wan_link_j_to_g(), des::SimTime::milliseconds(500),
                   des::SimTime::seconds(outage_s));
  }
  net::TcpConfig cfg;
  cfg.recv_buffer = units::Bytes{4u << 20};
  // GTW-San: conservation across the cut — outage drops must balance the
  // ledgers, and every fault must revert by drain.
  check::Monitor mon(tb.scheduler());
  check::attach_testbed(mon, tb);
  check::attach_fault_plan(mon, plan);
  const auto res = net::run_bulk_transfer(tb.scheduler(), tb.gw_o200(),
                                          tb.gw_e5000(), units::Bytes{128u << 20}, cfg);
  mon.finish();
  mon.require_clean("r1_fault_recovery tcp");
  return {res.duration.sec(), res.goodput.bps() / 1e6,
          res.sender_stats.retransmits, res.sender_stats.timeouts,
          tb.wan_link_j_to_g().outage_drops()};
}

struct FireRow {
  double recovery_s = 0.0;       // line healed -> next image displayed
  double degraded_s = 0.0;
  std::uint64_t frames_dropped = 0;  // superseded while degraded
  std::uint64_t scans_completed = 0;
  std::uint64_t link_outage_drops = 0;
};

// The paper's pipeline with results displayed across the WAN (compute in
// Juelich, RT-client at the GMD); the outage starts mid-run at t = 15 s.
// With emit_obs set, one run additionally carries the observability layer
// (read-only probes + sampler ticks — results are unchanged) and exports
// OBS_r1_fault_recovery.{metrics,series}.json.
FireRow run_fire(double outage_s, bool emit_obs = false) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  fire::PipelineConfig cfg;
  cfg.n_scans = 20;
  cfg.t3e_pes = 256;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_gmd()}, cfg);

  net::FaultPlan plan(tb.scheduler());
  plan.add_observer([&](const net::FaultEvent&, bool) {
    pipe.graph().set_degraded(plan.any_active());
  });

  obs::Registry reg;
  obs::TimeSeriesSampler sampler(tb.scheduler(), reg);
  if (emit_obs) {
    obs::instrument_link(reg, tb.wan_link_j_to_g(), "net.link.wan_j_to_g");
    obs::instrument_link(reg, tb.wan_link_g_to_j(), "net.link.wan_g_to_j");
    obs::instrument_host(reg, tb.gw_o200());
    obs::bridge_flow_metrics(reg, pipe.metrics(), "fire");
    obs::attach_fault_plan(reg, plan);
    sampler.watch("fault.active");
    sampler.watch("net.link.wan_j_to_g.queue_bytes");
    sampler.watch("fire.graph.completed");
    sampler.watch("fire.graph.degraded_dropped");
    sampler.sample_every(des::SimTime::milliseconds(500),
                         des::SimTime::seconds(70));
  }

  if (outage_s > 0.0) {
    plan.link_down(tb.wan_link_j_to_g(), des::SimTime::seconds(15),
                   des::SimTime::seconds(outage_s));
  }
  check::Monitor mon(tb.scheduler());
  check::attach_testbed(mon, tb);
  check::attach_fault_plan(mon, plan);
  check::attach_stage_graph(mon, pipe.graph(), "fire");
  pipe.start();
  tb.scheduler().run();
  mon.finish();
  mon.require_clean("r1_fault_recovery fire");

  if (emit_obs) {
    {
      std::ofstream metrics("OBS_r1_fault_recovery.metrics.json",
                            std::ios::binary);
      obs::write_metrics_json(metrics, reg, "r1_fault_recovery outage=2s");
    }
    {
      std::ofstream series("OBS_r1_fault_recovery.series.json",
                           std::ios::binary);
      obs::write_series_json(series, sampler);
    }
  }

  const auto& m = pipe.metrics();
  return {m.last_recovery_time.sec(), m.degraded_time.sec(),
          m.degraded_dropped, m.completed,
          tb.wan_link_j_to_g().outage_drops()};
}

void print_r1() {
  std::printf("== R1: recovery cost vs scripted WAN outage duration ==\n");
  std::printf("%9s | %26s | %30s\n", "outage(s)",
              "TCP transfer s / rexmt / RTO", "FIRE recovery s / dropped / done");
  std::ofstream json("BENCH_r1_fault_recovery.json");
  json << "{\n  \"bench\": \"r1_fault_recovery\",\n"
       << "  \"tcp_transfer_bytes\": " << (128u << 20) << ",\n"
       << "  \"fire_n_scans\": 20,\n  \"rows\": [\n";
  bool first = true;
  for (double outage : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const TcpRow t = run_tcp(outage);
    // The 2 s row doubles as the observability showcase; the probes are
    // read-only, so its numbers match an uninstrumented run exactly.
    const FireRow f = run_fire(outage, /*emit_obs=*/outage == 2.0);
    std::printf("%9.1f | %10.3f / %5llu / %3llu | %10.3f / %7llu / %4llu\n",
                outage, t.transfer_s,
                static_cast<unsigned long long>(t.retransmits),
                static_cast<unsigned long long>(t.timeouts), f.recovery_s,
                static_cast<unsigned long long>(f.frames_dropped),
                static_cast<unsigned long long>(f.scans_completed));
    char row[640];
    std::snprintf(
        row, sizeof row,
        "    {\"outage_s\": %.17g,\n"
        "     \"tcp\": {\"transfer_s\": %.17g, \"goodput_mbps\": %.17g, "
        "\"retransmits\": %llu, \"timeouts\": %llu, \"outage_drops\": %llu},\n"
        "     \"fire\": {\"recovery_s\": %.17g, \"degraded_s\": %.17g, "
        "\"frames_dropped\": %llu, \"scans_completed\": %llu, "
        "\"outage_drops\": %llu}}",
        outage, t.transfer_s, t.goodput_mbps,
        static_cast<unsigned long long>(t.retransmits),
        static_cast<unsigned long long>(t.timeouts),
        static_cast<unsigned long long>(t.outage_drops), f.recovery_s,
        f.degraded_s, static_cast<unsigned long long>(f.frames_dropped),
        static_cast<unsigned long long>(f.scans_completed),
        static_cast<unsigned long long>(f.link_outage_drops));
    json << (first ? "" : ",\n") << row;
    first = false;
  }
  json << "\n  ]\n}\n";
  json.flush();
  std::printf(json ? "[wrote BENCH_r1_fault_recovery.json]\n\n"
                   : "[failed to write BENCH_r1_fault_recovery.json]\n\n");
}

void BM_TcpThroughOutage(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run_tcp(2.0));
}
BENCHMARK(BM_TcpThroughOutage)->Unit(benchmark::kMillisecond);

void BM_FireThroughOutage(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run_fire(2.0));
}
BENCHMARK(BM_FireThroughOutage)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_r1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
