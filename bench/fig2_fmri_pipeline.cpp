// F2 — Figure 2 of the paper: "Setup of the fMRI experiment.  The raw
// scanner data are transferred through a front-end workstation to the T3E
// where they are processed.  From there, anatomical and functional brain
// images are transferred to either a workstation with a 2-D display or over
// the testbed to an Onyx 2 in the GMD.  The rendered images are sent back
// over the testbed to a Responsive Workbench in Jülich."
// Runs the full distributed pipeline (with real numerics on the synthetic
// scanner) and prints the per-stage event log for the first scans plus the
// detected activation.  Writes BENCH_fig2_fmri_pipeline.json and, from the
// span tracer and probes attached to every run, four OBS_ artifacts.
#include <cstdio>
#include <fstream>

#include "check/attach.hpp"
#include "check/monitor.hpp"
#include "fire/pipeline.hpp"
#include "obs/exporter.hpp"
#include "obs/instrument.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "scanner/phantom.hpp"
#include "testbed/testbed.hpp"
#include "viz/merge.hpp"
#include "viz/workbench.hpp"

namespace {

using namespace gtw;

void print_fig2() {
  std::printf("== Figure 2: distributed realtime-fMRI pipeline ==\n");
  testbed::Testbed tb{testbed::TestbedOptions{}};

  scanner::FmriConfig scfg;
  scfg.dims = {32, 32, 8};  // reduced matrix so the numerics run quickly
  scfg.regions = {{10, 20, 4, 3.0, 0.05}};
  scfg.expected_scans = 12;
  scanner::FmriSeriesGenerator gen(scfg);

  fire::AnalysisConfig acfg;
  acfg.stimulus = scfg.stimulus;
  acfg.hrf = scfg.hrf;
  acfg.tr_s = scfg.tr_s;
  acfg.motion_correction = false;
  acfg.detrend_cfg.expected_scans = scfg.expected_scans;
  fire::AnalysisEngine engine(scfg.dims, acfg);

  fire::PipelineConfig cfg;
  cfg.n_scans = 12;
  cfg.t3e_pes = 256;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg,
      [&gen](int t) { return gen.acquire(t); }, &engine);

  // Causal span tracing (DESIGN.md section 13): per-scan latency trees
  // rooted at pipeline admission, with each stage's spans on its VAMPIR
  // lane (transfer / compute / return / display), plus the observability
  // registry.  Everything here is read-only probes plus sampler ticks, so
  // the pipeline results (and BENCH_*.json) are unchanged by tracing.
  obs::Registry reg;
  obs::TimeSeriesSampler sampler(tb.scheduler(), reg);
  obs::SpanTracer spans;
  tb.scheduler().set_span_hook(&spans);
  obs::instrument_link(reg, tb.wan_link_j_to_g(), "net.link.wan_j_to_g");
  obs::instrument_link(reg, tb.wan_link_g_to_j(), "net.link.wan_g_to_j");
  obs::instrument_host(reg, tb.scanner_frontend());
  obs::instrument_host(reg, tb.gw_o200());
  obs::instrument_host(reg, tb.onyx2_juelich());
  obs::instrument_atm_switch(reg, tb.atm_juelich());
  obs::instrument_atm_switch(reg, tb.atm_gmd());
  obs::bridge_flow_metrics(reg, pipe.metrics(), "fire");
  sampler.watch("net.link.wan_j_to_g.queue_bytes");
  sampler.watch("net.link.wan_j_to_g.utilization");
  sampler.watch_prefix("fire.stage.");
  sampler.watch("fire.graph.completed");
  sampler.sample_every(des::SimTime::milliseconds(500),
                       des::SimTime::seconds(50));

  // GTW-San: whole-testbed conservation sweep plus the pipeline's stage
  // graph (item conservation, drain census, per-stage ledgers); attaching
  // schedules nothing, so traces stay comparable.
  check::Monitor mon(tb.scheduler());
  check::attach_testbed(mon, tb);
  check::attach_stage_graph(mon, pipe.graph(), "fire");
  check::attach_span_tracer(mon, spans);
  pipe.start();
  tb.scheduler().run();
  mon.finish();
  mon.require_clean("fig2_fmri_pipeline");

  const fire::PipelineResult res = pipe.result();
  std::printf("\nscan |  acquired  at_server at_compute  processed  "
              "at_client  displayed   (s)\n");
  for (const auto& r : res.records) {
    if (r.index >= 5) break;
    std::printf("%4d | %9.2f %10.2f %10.2f %10.2f %10.2f %10.2f\n", r.index,
                r.acquired.sec(), r.at_server.sec(), r.at_compute.sec(),
                r.processed.sec(), r.at_client.sec(), r.displayed.sec());
  }
  std::printf("\nmean total delay %.2f s (paper: < 5 s @ 256 PEs); "
              "sustained period %.2f s\n", res.mean_total_delay_s,
              res.sustained_period_s);

  // The Onyx-2 leg: merge functional onto the anatomical volume.
  const fire::VolumeF anat = scanner::make_anatomical({128, 128, 64});
  const viz::MergeResult merged =
      viz::merge_functional(anat, engine.correlation_map(), 0.35f);
  std::printf("3-D merge on Onyx2: %zu anatomical voxels flagged active, "
              "peak r = %.2f\n", merged.activated_voxels,
              merged.peak_correlation);
  const std::size_t driven = [&] {
    std::size_t n = 0;
    const auto mask = gen.activation_mask();
    for (std::size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) ++n;
    return n;
  }();
  std::printf("(ground truth: %zu functional voxels were driven)\n", driven);

  std::ofstream json("BENCH_fig2_fmri_pipeline.json");
  json << "{\n  \"bench\": \"fig2_fmri_pipeline\",\n"
       << "  \"n_scans\": " << cfg.n_scans << ",\n  \"t3e_pes\": "
       << cfg.t3e_pes << ",\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"mean_total_delay_s\": %.17g,\n"
                "  \"sustained_period_s\": %.17g,\n",
                res.mean_total_delay_s, res.sustained_period_s);
  json << buf << "  \"records\": [\n";
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    const auto& r = res.records[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"scan\": %d, \"acquired_s\": %.17g, "
                  "\"at_server_s\": %.17g, \"at_compute_s\": %.17g, "
                  "\"processed_s\": %.17g, \"at_client_s\": %.17g, "
                  "\"displayed_s\": %.17g}%s",
                  r.index, r.acquired.sec(), r.at_server.sec(),
                  r.at_compute.sec(), r.processed.sec(), r.at_client.sec(),
                  r.displayed.sec(),
                  i + 1 < res.records.size() ? ",\n" : "\n");
    json << buf;
  }
  json << "  ],\n  \"merge\": {\"activated_voxels\": "
       << merged.activated_voxels;
  std::snprintf(buf, sizeof buf, ", \"peak_correlation\": %.17g",
                static_cast<double>(merged.peak_correlation));
  json << buf << ", \"driven_voxels\": " << driven << "}\n}\n";
  json.flush();
  std::printf(json ? "[wrote BENCH_fig2_fmri_pipeline.json]\n\n"
                   : "[failed to write BENCH_fig2_fmri_pipeline.json]\n\n");

  {
    std::ofstream chrome("OBS_fig2_fmri_pipeline.chrome.json",
                         std::ios::binary);
    obs::ChromeTraceOptions copts;
    copts.process_name = "fig2_fmri_pipeline";
    copts.series = &sampler;
    copts.marks_from = &reg;
    obs::write_chrome_trace(chrome, spans.file(), copts);
  }
  {
    std::ofstream metrics("OBS_fig2_fmri_pipeline.metrics.json",
                          std::ios::binary);
    obs::write_metrics_json(metrics, reg, "fig2_fmri_pipeline");
  }
  {
    std::ofstream series("OBS_fig2_fmri_pipeline.series.json",
                         std::ios::binary);
    obs::write_series_json(series, sampler);
  }
  {
    std::ofstream sp("OBS_fig2_fmri_pipeline.spans.json", std::ios::binary);
    spans.write_json(sp, "fig2_fmri_pipeline");
  }
  std::printf("[wrote OBS_fig2_fmri_pipeline.{chrome.json,metrics.json,"
              "series.json,spans.json}]\n\n");
}

}  // namespace

int main() {
  print_fig2();
  return 0;
}
