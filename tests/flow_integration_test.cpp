// Integration coverage for the dataflow engine as deployed: the fMRI
// pipeline (fire), the workbench frame streamer (viz) and the section-5
// apps (video, traffic) all run on flow::StageGraph, so each must expose
// coherent per-stage metrics and well-formed spans on the stage lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "apps/traffic.hpp"
#include "apps/video.hpp"
#include "fire/pipeline.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"
#include "testbed/extensions.hpp"
#include "testbed/testbed.hpp"
#include "viz/workbench.hpp"

namespace gtw {
namespace {

enum class Kind { kState, kSend, kRecv };

// Closed spans of one kind on `lane`.
int count_kind(const obs::SpanFile& f, Kind kind, std::int64_t lane) {
  int n = 0;
  for (const obs::SpanRec& s : f.spans) {
    if (s.lane != lane || s.status != obs::SpanStatus::kOk) continue;
    const obs::SpanRec* parent = obs::span_by_id(f, s.parent);
    const Kind k = s.to >= 0                                  ? Kind::kSend
                   : parent != nullptr && parent->to >= 0 ? Kind::kRecv
                                                          : Kind::kState;
    if (k == kind) ++n;
  }
  return n;
}

bool has_state(const obs::SpanFile& f, const std::string& name) {
  const std::vector<std::string> states = obs::lane_stats(f).states;
  return std::find(states.begin(), states.end(), name) != states.end();
}

TEST(FlowIntegrationTest, FirePipelineStagesTraceAndMeter) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  fire::PipelineConfig cfg;
  cfg.n_scans = 6;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  obs::SpanTracer spans;  // lanes: transfer / compute / return / display
  tb.scheduler().set_span_hook(&spans);
  pipe.start();
  tb.scheduler().run();
  const obs::SpanFile& f = spans.file();

  const fire::PipelineResult res = pipe.result();
  EXPECT_EQ(res.records.size(), 6u);
  // Every scan passes every stage once (TR = 3 s keeps up, nothing skipped).
  const flow::MetricsRegistry& m = pipe.metrics();
  ASSERT_EQ(m.stages().size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(m.stage(s).items_in, 6u) << m.stage(s).name;
    EXPECT_EQ(m.stage(s).items_out, 6u) << m.stage(s).name;
    EXPECT_EQ(m.stage(s).dropped, 0u) << m.stage(s).name;
  }
  EXPECT_EQ(m.admitted, 6u);
  EXPECT_EQ(m.completed, 6u);
  EXPECT_EQ(m.admission_dropped, 0u);
  // The compute stage's integrated busy time is n_scans * compute_time.
  EXPECT_EQ(m.stage(1).busy, pipe.compute_time(cfg.t3e_pes) * 6);

  // Spans: one closed state per scan on each of the four lanes, and the
  // transfer/return stages add send/recv messages.
  EXPECT_TRUE(has_state(f, "transfer"));
  EXPECT_TRUE(has_state(f, "compute"));
  EXPECT_TRUE(has_state(f, "return"));
  EXPECT_TRUE(has_state(f, "display"));
  for (std::int64_t lane = 0; lane < 4; ++lane)
    EXPECT_EQ(count_kind(f, Kind::kState, lane), 6) << "lane " << lane;
  EXPECT_EQ(count_kind(f, Kind::kSend, 0), 6);
  EXPECT_EQ(count_kind(f, Kind::kRecv, 1), 6);
  EXPECT_EQ(count_kind(f, Kind::kSend, 2), 6);
  EXPECT_EQ(count_kind(f, Kind::kRecv, 3), 6);
  EXPECT_EQ(spans.open_spans(), 0u);

  // Leak census at drain: the whole pipeline (timers, transfers, stage
  // wakeups) returned every event-pool slot it ever acquired.
  EXPECT_EQ(tb.scheduler().pool_in_use(),
            tb.scheduler().live_events() + tb.scheduler().cancelled_entries());
}

TEST(FlowIntegrationTest, FireSequentialSkipsShowUpAsAdmissionDrops) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  fire::PipelineConfig cfg;
  cfg.tr_s = 1.5;  // faster than the 2.7 s loop: the client must skip scans
  cfg.n_scans = 12;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  pipe.start();
  tb.scheduler().run();
  const fire::PipelineResult res = pipe.result();
  EXPECT_GT(res.scans_skipped, 0);
  EXPECT_EQ(pipe.metrics().admission_dropped,
            static_cast<std::uint64_t>(res.scans_skipped));
  EXPECT_EQ(pipe.metrics().completed + pipe.metrics().admission_dropped,
            static_cast<std::uint64_t>(cfg.n_scans));
}

TEST(FlowIntegrationTest, FireTraceFeedsMultiRankGanttAndProfile) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  fire::PipelineConfig cfg;
  cfg.n_scans = 6;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  obs::SpanTracer spans;
  tb.scheduler().set_span_hook(&spans);
  pipe.start();
  tb.scheduler().run();

  // Round-trip through the spans artifact, then render the multi-lane views.
  const obs::SpanFile& f = spans.file();
  const std::string g = obs::gantt(f, 60);
  for (int r = 0; r < 4; ++r) {
    char label[16];
    std::snprintf(label, sizeof label, "rank %2d", r);
    EXPECT_NE(g.find(label), std::string::npos) << g;
  }
  // Each rank paints its own stage letter: c(ompute) on rank 1, d(isplay)
  // on rank 3.
  EXPECT_NE(g.find('c'), std::string::npos);
  EXPECT_NE(g.find('d'), std::string::npos);

  const std::string prof = obs::profile(f);
  EXPECT_NE(prof.find("compute="), std::string::npos);
  EXPECT_NE(prof.find("display="), std::string::npos);
  // Profile time on the compute lane matches the metrics' busy integral.
  EXPECT_EQ(obs::lane_stats(f).state_ps.at({1, "compute"}),
            pipe.metrics().stage(1).busy.ps());
}

TEST(FlowIntegrationTest, FrameStreamerMetersRenderAndUplink) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  net::TcpConfig tcp;
  tcp.mss = tb.options().atm_mtu - units::Bytes{40};
  tcp.recv_buffer = units::Bytes{1u << 20};
  viz::FrameStreamer streamer(tb.scheduler(), tb.onyx2_gmd(),
                              tb.workbench_juelich(), viz::WorkbenchFormat{},
                              viz::RenderModel{}, 10, tcp);
  obs::SpanTracer spans;
  tb.scheduler().set_span_hook(&spans);
  streamer.start();
  tb.scheduler().run();
  const obs::SpanFile& f = spans.file();

  EXPECT_EQ(streamer.frames_delivered(), 10);
  const flow::MetricsRegistry& m = streamer.metrics();
  ASSERT_EQ(m.stages().size(), 2u);
  EXPECT_EQ(m.stage(0).name, "render");
  EXPECT_EQ(m.stage(1).name, "uplink");
  EXPECT_EQ(m.stage(0).items_out, 10u);
  EXPECT_EQ(m.stage(1).items_out, 10u);
  // Render is double-buffered against the transfer: the uplink dominates,
  // so its occupancy is (near) 1 while render idles between frames.
  EXPECT_GT(m.stage(1).occupancy(), 0.9);
  EXPECT_LT(m.stage(0).occupancy(), m.stage(1).occupancy());

  EXPECT_TRUE(has_state(f, "render"));
  EXPECT_TRUE(has_state(f, "uplink"));
  EXPECT_EQ(count_kind(f, Kind::kState, 0), 10);
  EXPECT_EQ(count_kind(f, Kind::kState, 1), 10);
  // One send per frame leaving the uplink, one recv on its delivery.
  EXPECT_EQ(count_kind(f, Kind::kSend, 1), 10);
  EXPECT_EQ(count_kind(f, Kind::kRecv, 2), 10);
}

TEST(FlowIntegrationTest, VideoSessionCountsFramesThroughTheGraph) {
  testbed::Testbed tb{testbed::TestbedOptions{testbed::WanEra::kOc48_1998}};
  apps::D1VideoConfig cfg;
  cfg.frames = 50;
  apps::D1VideoSession session(tb.onyx2_gmd(), tb.onyx2_juelich(), cfg);
  obs::SpanTracer spans;
  tb.scheduler().set_span_hook(&spans);
  session.start();
  tb.scheduler().run();
  const obs::SpanFile& f = spans.file();

  const apps::D1VideoReport rep = session.report();
  EXPECT_EQ(rep.frames_sent, 50u);
  const flow::MetricsRegistry& m = session.metrics();
  ASSERT_EQ(m.stages().size(), 1u);
  EXPECT_EQ(m.stage(0).name, "uplink");
  EXPECT_EQ(m.stage(0).items_out, 50u);
  EXPECT_EQ(m.completed, 50u);
  EXPECT_EQ(count_kind(f, Kind::kState, 0), 50);
  // Datagrams record only the send.
  EXPECT_EQ(count_kind(f, Kind::kSend, 0), 50);
  EXPECT_EQ(count_kind(f, Kind::kRecv, 1), 0);
}

TEST(FlowIntegrationTest, TrafficVizSimulateAndPublishStages) {
  testbed::ExtendedTestbed tb;
  apps::NaschConfig cfg;
  cfg.cells = 200;
  apps::DistributedTrafficViz run(tb.dlr_traffic(), tb.cologne_viz(), cfg,
                                  /*steps=*/30);
  obs::SpanTracer spans;
  tb.scheduler().set_span_hook(&spans);
  run.start();
  tb.scheduler().run();
  const obs::SpanFile& f = spans.file();

  const apps::TrafficVizResult& res = run.result();
  EXPECT_EQ(res.steps_simulated, 30);
  const flow::MetricsRegistry& m = run.metrics();
  ASSERT_EQ(m.stages().size(), 2u);
  EXPECT_EQ(m.stage(0).name, "simulate");
  EXPECT_EQ(m.stage(1).name, "publish");
  EXPECT_EQ(m.stage(0).items_out, 30u);
  EXPECT_EQ(m.stage(1).items_out, 30u);
  EXPECT_EQ(m.completed, 30u);
  EXPECT_TRUE(has_state(f, "simulate"));
  EXPECT_TRUE(has_state(f, "publish"));
  EXPECT_EQ(count_kind(f, Kind::kState, 0), 30);
  EXPECT_EQ(count_kind(f, Kind::kSend, 1), 30);
  // The metrics report is printable and names both stages.
  const std::string report = m.report();
  EXPECT_NE(report.find("simulate"), std::string::npos);
  EXPECT_NE(report.find("publish"), std::string::npos);
}

}  // namespace
}  // namespace gtw
