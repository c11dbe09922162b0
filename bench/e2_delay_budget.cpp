// E2 — the end-to-end delay budget of section 4:
//   "The RT-server receives the data approximately 1.5 seconds after the
//    scan ... The data transfers and the exchange of control messages ...
//    sum up to 1.1 seconds.  Another 0.6 seconds elapse after the data has
//    arrived at the client ... When 256 PEs are used on the T3E, this
//    leads to a total delay of less than 5 seconds."
//   "the throughput of the application ... is the sum of the delays in the
//    RT-client and the T3E, which is 2.7 seconds ... the scanner can
//    safely be operated with a repetition rate of 3 seconds."
// Sweeps the PE count and prints the delay decomposition per row.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>

#include "check/attach.hpp"
#include "check/monitor.hpp"
#include "fire/pipeline.hpp"
#include "flow/graph.hpp"
#include "meta/coallocation.hpp"
#include "meta/metacomputer.hpp"
#include "meta/path_transport.hpp"
#include "obs/span.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace gtw;

fire::PipelineResult run_pipeline(int pes, fire::PipelineMode mode,
                                  double tr_s) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  fire::PipelineConfig cfg;
  cfg.t3e_pes = pes;
  cfg.mode = mode;
  cfg.tr_s = tr_s;
  cfg.n_scans = 10;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  pipe.start();
  tb.scheduler().run();
  return pipe.result();
}

void print_e2() {
  std::printf("== E2: fMRI end-to-end delay budget (sequential pipeline, "
              "TR = 3 s) ==\n");
  std::printf("%4s | %9s | %17s | %9s | %11s | %11s | %7s\n", "PEs",
              "compute", "transfers+control", "display", "total delay",
              "safe TR (s)", "skipped");
  for (int pes : {16, 32, 64, 128, 256}) {
    const auto res = run_pipeline(pes, fire::PipelineMode::kSequential, 3.0);
    std::printf("%4d | %9.2f | %17.2f | %9.2f | %11.2f | %11.2f | %7d\n",
                pes, res.mean_compute_s, res.mean_transfer_control_s, 0.6,
                res.mean_total_delay_s, res.min_safe_tr_s,
                res.scans_skipped);
  }
  std::printf("paper @256 PEs: compute 1.01, transfers+control 1.1, display "
              "0.6, scan->server 1.5, total < 5, safe TR ~2.7-3\n");

  // The paper's concluding concern: "the problem of simultaneous resource
  // allocation in a distributed environment will become more apparent when
  // the application is used for clinical research."  A morning of clinical
  // sessions through the UNICORE-style co-allocation broker:
  std::printf("\nclinical outlook: co-allocating scanner + 256 T3E PEs + "
              "8 Onyx2 CPUs per 30-min session\n");
  {
    testbed::Testbed tb{testbed::TestbedOptions{}};
    meta::Metacomputer mc(tb.scheduler());
    meta::MachineSpec scanner_m;
    scanner_m.name = "MRI scanner";
    scanner_m.max_pes = 1;
    meta::MachineSpec t3e_m;
    t3e_m.name = "T3E";
    t3e_m.max_pes = 512;
    meta::MachineSpec onyx_m;
    onyx_m.name = "Onyx2";
    onyx_m.max_pes = 12;
    const int scanner = mc.add_machine(scanner_m);
    const int t3e = mc.add_machine(t3e_m);
    const int onyx = mc.add_machine(onyx_m);
    meta::CoallocationBroker broker(mc);
    for (int i = 0; i < 5; ++i) {
      const meta::Reservation r = broker.reserve(
          {{scanner, 1}, {t3e, 256}, {onyx, 8}},
          des::SimTime::seconds(1800.0), des::SimTime::zero());
      std::printf("  session %d: %7.0f s .. %7.0f s\n", i + 1,
                  r.start.sec(), r.end.sec());
    }
    std::printf("  T3E utilisation over the morning: %.0f%% (batch jobs can "
                "fill the other half)\n",
                100.0 * broker.utilisation(t3e, des::SimTime::zero(),
                                           des::SimTime::seconds(9000.0)));
  }
  std::printf("\n");
}

// The spans companion to the printed table: the same sequential
// scan->preprocess->WAN transfer->display loop, but run over the real
// striped WAN path so every scan's end-to-end latency decomposes into a
// causal span tree crossing flow (admission/compute), meta (chunk
// striping), tcp (segments, stalls) and link (serialize/propagate).
// Writes OBS_e2_delay_budget.spans.json; `gtw-trace <it> --budget`
// reproduces the delay-budget table above from the spans alone, and
// `--critical-path worst` prints the per-phase waterfall of the slowest
// scan.  Sits under the double-run determinism replay gate.
void emit_e2_spans() {
  std::printf("spans: tracing %d scans through the striped WAN path\n", 4);
  testbed::Testbed tb{testbed::TestbedOptions{}};
  obs::SpanTracer spans;
  tb.scheduler().set_span_hook(&spans);

  meta::Metacomputer mc{tb.scheduler()};
  meta::MachineSpec a;
  a.name = "JUELICH";
  a.frontend = &tb.gw_o200();
  meta::MachineSpec b;
  b.name = "GMD";
  b.frontend = &tb.gw_e5000();
  const int ma = mc.add_machine(a);
  const int mb = mc.add_machine(b);
  meta::PathConfig pc;
  pc.tcp.mss = tb.options().atm_mtu - units::Bytes{40};
  pc.tcp.recv_buffer = units::Bytes{4u << 20};
  pc.streams = 4;
  pc.chunk_bytes = units::Bytes{256u << 10};
  pc.stream_window = units::Bytes{2u << 20};
  pc.chunk_timeout = des::SimTime::milliseconds(400);
  mc.link_machines(ma, mb, pc, 7000);

  flow::GraphConfig gcfg;
  gcfg.max_in_flight = 1;  // the paper's sequential request/reply loop
  flow::StageGraph graph(tb.scheduler(), gcfg);

  flow::StageConfig pre;
  pre.name = "preprocess";
  pre.body = [&tb](flow::StageContext, flow::Item&, flow::Done done) {
    tb.scheduler().schedule_after(des::SimTime::milliseconds(200),
                                  std::move(done));
  };
  graph.add_stage(std::move(pre));

  flow::StageConfig xfer;
  xfer.name = "wan-transfer";
  xfer.body = [&mc, ma, mb](flow::StageContext, flow::Item&,
                            flow::Done done) {
    // 2 MB functional volume, striped into chunks over the WAN path; the
    // item's trace context rides the chunks into tcp and the links.
    mc.wan_send(ma, mb, units::Bytes{2u << 20},
                [done = std::move(done)] { done(); });
  };
  graph.add_stage(std::move(xfer));

  flow::StageConfig display;
  display.name = "display";
  display.body = [&tb](flow::StageContext, flow::Item&, flow::Done done) {
    tb.scheduler().schedule_after(des::SimTime::milliseconds(600),
                                  std::move(done));
  };
  graph.add_stage(std::move(display));

  check::Monitor mon(tb.scheduler());
  check::attach_testbed(mon, tb);
  check::attach_stage_graph(mon, graph, "e2");
  check::attach_path_transport(mon, *mc.wan_path(ma, mb), "wan");
  check::attach_span_tracer(mon, spans);

  for (int i = 0; i < 4; ++i) {
    tb.scheduler().schedule_at(des::SimTime::seconds(3.0 * i),
                               [&graph, i] { graph.push(i); });
  }
  tb.scheduler().run();
  mon.finish();
  mon.require_clean("e2_delay_budget");

  std::ofstream sp("OBS_e2_delay_budget.spans.json", std::ios::binary);
  spans.write_json(sp, "e2_delay_budget");
  sp.flush();
  std::printf(sp ? "[wrote OBS_e2_delay_budget.spans.json — try gtw-trace "
                   "OBS_e2_delay_budget.spans.json --budget]\n\n"
                 : "[failed to write OBS_e2_delay_budget.spans.json]\n\n");
}

void BM_PipelineRun(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_pipeline(256, fire::PipelineMode::kSequential, 3.0));
  }
}
BENCHMARK(BM_PipelineRun)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_e2();
  emit_e2_spans();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
