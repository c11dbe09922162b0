// A2 — ablation of the paper's acknowledged drawback: "The drawback of this
// simple approach is that we make no use of the possibility to pipeline the
// work.  In particular, a new image is requested from the RT-server only
// after the processing and displaying of the previous one is completed."
// Sequential vs pipelined orchestration across scanner repetition times.
#include <cstdio>
#include <fstream>

#include "check/attach.hpp"
#include "check/monitor.hpp"
#include "fire/pipeline.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace gtw;

fire::PipelineResult run(double tr_s, fire::PipelineMode mode, int pes) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  fire::PipelineConfig cfg;
  cfg.tr_s = tr_s;
  cfg.mode = mode;
  cfg.t3e_pes = pes;
  cfg.n_scans = 14;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  // GTW-San: conservation sweep over the whole testbed, gating the bench.
  check::Monitor mon(tb.scheduler());
  check::attach_testbed(mon, tb);
  pipe.start();
  tb.scheduler().run();
  mon.finish();
  mon.require_clean("a2_pipelining");
  return pipe.result();
}

void print_a2() {
  std::printf("== A2: sequential vs pipelined RT-client (256 PEs) ==\n");
  std::printf("%6s | %22s | %22s\n", "TR (s)",
              "sequential period/delay", "pipelined period/delay");
  std::ofstream json("BENCH_a2_pipelining.json");
  json << "{\n  \"bench\": \"a2_pipelining\",\n  \"t3e_pes\": 256,\n"
       << "  \"n_scans\": 14,\n  \"rows\": [\n";
  bool first = true;
  for (double tr : {3.5, 3.0, 2.5, 2.0, 1.5}) {
    const auto seq = run(tr, fire::PipelineMode::kSequential, 256);
    const auto pip = run(tr, fire::PipelineMode::kPipelined, 256);
    std::printf("%6.1f | %9.2f / %9.2f  | %9.2f / %9.2f %s\n", tr,
                seq.sustained_period_s, seq.mean_total_delay_s,
                pip.sustained_period_s, pip.mean_total_delay_s,
                seq.sustained_period_s > tr + 0.05 &&
                        pip.sustained_period_s <= tr + 0.05
                    ? "<- pipelining keeps up, sequential falls behind"
                    : "");
    char row[512];
    std::snprintf(
        row, sizeof row,
        "    {\"tr_s\": %.17g,\n"
        "     \"sequential\": {\"sustained_period_s\": %.17g, "
        "\"mean_total_delay_s\": %.17g, \"scans_skipped\": %d},\n"
        "     \"pipelined\": {\"sustained_period_s\": %.17g, "
        "\"mean_total_delay_s\": %.17g, \"scans_skipped\": %d}}",
        tr, seq.sustained_period_s, seq.mean_total_delay_s, seq.scans_skipped,
        pip.sustained_period_s, pip.mean_total_delay_s, pip.scans_skipped);
    json << (first ? "" : ",\n") << row;
    first = false;
  }
  json << "\n  ]\n}\n";
  std::printf("(paper: sequential throughput = 2.7 s = sum of client + T3E "
              "delays, so TR = 3 s is safe; pipelining pushes the limit to "
              "the slowest single stage)\n");
  json.flush();
  std::printf(json ? "[wrote BENCH_a2_pipelining.json]\n\n"
                   : "[failed to write BENCH_a2_pipelining.json]\n\n");
}

}  // namespace

int main() {
  print_a2();
  return 0;
}
