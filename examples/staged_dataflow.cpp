// The dataflow engine on its own: a three-stage acquire->compute->display
// pipeline run in both of the paper's orchestration modes, with the
// per-stage metrics report and the VAMPIR-style Gantt that every
// flow::StageGraph provides for free: each stage's spans sit on its lane.
#include <cstdio>
#include <sstream>
#include <string>

#include "des/scheduler.hpp"
#include "flow/graph.hpp"
#include "flow/stage.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"

using namespace gtw;

namespace {

void run_mode(const char* label, flow::GraphConfig cfg) {
  des::Scheduler sched;
  obs::SpanTracer spans;
  sched.set_span_hook(&spans);
  flow::StageGraph g(sched, cfg);
  g.add_stage(flow::compute_stage("transfer", [](const flow::Item&) {
    return des::SimTime::seconds(0.5);
  }, 1));
  g.add_stage(flow::compute_stage("compute", [](const flow::Item&) {
    return des::SimTime::seconds(1.1);
  }, 1));
  g.add_stage(flow::delay_stage("display", des::SimTime::seconds(0.6)));

  des::SimTime last = des::SimTime::zero(), period = des::SimTime::zero();
  g.on_complete([&](const flow::Item&) {
    period = sched.now() - last;
    last = sched.now();
  });
  // A scanner-like source: one item per 1.2 s repetition time.
  flow::PeriodicSource scans(g, {des::SimTime::seconds(1.2), 10});
  scans.start();
  sched.run();

  std::printf("== %s ==\n", label);
  std::printf("%s", g.metrics().report().c_str());
  std::printf("steady-state period %.2f s\n", period.sec());
  std::stringstream json;
  spans.write_json(json, "staged_dataflow");
  obs::SpanFile file;
  std::string error;
  if (!obs::load_spans(json, "staged_dataflow spans", file, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return;
  }
  std::printf("%s\n", obs::gantt(file, 64).c_str());
}

}  // namespace

int main() {
  // Sequential request/reply (the paper's FIRE client): one item in
  // flight, a newer scan supersedes anything still waiting.
  run_mode("sequential (max_in_flight=1, drop-stale admission)",
           {1, flow::QueuePolicy::kDropStale});
  // Pipelined: stages overlap, the 1.1 s compute stage sets the pace.
  run_mode("pipelined (free admission)", {});
  return 0;
}
