#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "fire/volume.hpp"
#include "flow/graph.hpp"
#include "flow/stage.hpp"
#include "net/atm.hpp"
#include "net/units.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"
#include "scanner/phantom.hpp"
#include "viz/merge.hpp"
#include "viz/workbench.hpp"

namespace gtw {
namespace {

TEST(WorkbenchFormatTest, FrameBytesMatchPaper) {
  // "two projection planes, each of them displays stereo images of
  // 1024x768 true color (24 Bit) pixels" = 2 x 2 x 1024 x 768 x 3 bytes.
  viz::WorkbenchFormat fmt;
  EXPECT_EQ(fmt.frame_bytes().count(), 2ull * 2 * 1024 * 768 * 3);
}

TEST(ClassicalIpFpsTest, Below8FpsAt622AsPaperStates) {
  viz::WorkbenchFormat fmt;
  const double fps = viz::classical_ip_fps(fmt, net::kOc12Line);
  EXPECT_LT(fps, 8.0);
  EXPECT_GT(fps, 6.0);  // but not absurdly below
}

TEST(ClassicalIpFpsTest, ScalesWithLinkRate) {
  viz::WorkbenchFormat fmt;
  const double f622 = viz::classical_ip_fps(fmt, net::kOc12Line);
  const double f2400 = viz::classical_ip_fps(fmt, net::kOc48Line);
  EXPECT_NEAR(f2400 / f622, 4.0, 0.05);
}

TEST(ClassicalIpFpsTest, LargerMtuHelpsSlightly) {
  viz::WorkbenchFormat fmt;
  const double small = viz::classical_ip_fps(fmt, net::kOc12Line, units::Bytes{9180});
  const double large = viz::classical_ip_fps(fmt, net::kOc12Line, units::Bytes{65535});
  EXPECT_GT(large, small);
  EXPECT_LT(large / small, 1.10);  // cell tax dominates, headers are minor
}

TEST(MergeTest, UpsamplesAndFlagsActivation) {
  const fire::Dims anat_d{64, 64, 32};
  const fire::Dims func_d{16, 16, 8};
  fire::VolumeF anat = scanner::make_anatomical(anat_d);
  fire::VolumeF corr(func_d, 0.0f);
  corr.at(8, 8, 4) = 0.9f;  // one activated functional voxel

  const viz::MergeResult res = viz::merge_functional(anat, corr, 0.5f);
  EXPECT_GT(res.activated_voxels, 0u);
  // Upsampling factor 4x4x4: the blob covers on the order of 4^3 anatomical
  // voxels (trilinear support shrinks it below the full cube).
  EXPECT_LT(res.activated_voxels, 600u);
  // The anatomical grid never samples the functional voxel centre exactly,
  // so trilinear interpolation attenuates the 0.9 peak (0.875^3 = 0.67 of
  // it at the nearest sample).
  EXPECT_GT(res.peak_correlation, 0.55f);
  EXPECT_LE(res.peak_correlation, 0.9f);
  // Overlayed voxels got brighter than the plain anatomical.
  bool brighter = false;
  for (int z = 0; z < anat_d.nz && !brighter; ++z)
    for (int y = 0; y < anat_d.ny && !brighter; ++y)
      for (int x = 0; x < anat_d.nx && !brighter; ++x)
        if (res.overlay.at(x, y, z) &&
            res.merged.at(x, y, z) > anat.at(x, y, z))
          brighter = true;
  EXPECT_TRUE(brighter);
}

TEST(MergeTest, NoActivationBelowClip) {
  fire::VolumeF anat(scanner::make_anatomical(fire::Dims{32, 32, 16}));
  fire::VolumeF corr(fire::Dims{8, 8, 4}, 0.2f);
  const viz::MergeResult res = viz::merge_functional(anat, corr, 0.5f);
  EXPECT_EQ(res.activated_voxels, 0u);
}

TEST(RenderModelTest, FrameTimeScalesWithProcessors) {
  viz::WorkbenchFormat fmt;
  viz::RenderModel one{0.012, 1};
  viz::RenderModel twelve{0.012, 12};
  EXPECT_NEAR(one.frame_time(fmt).sec() / twelve.frame_time(fmt).sec(), 12.0,
              1e-9);
}

// --- VAMPIR views over lane spans (obs/span_analysis) ------------------------

des::SimTime sec(double s) { return des::SimTime::seconds(s); }

// One trace whose states and messages sit on lanes, entered the way a
// VAMPIR recorder saw them: in time order.
struct Lanes {
  obs::SpanTracer t;
  des::TraceContext ctx = t.mint("trace_test", des::SimTime::zero());

  std::uint64_t enter(std::uint32_t lane, const char* state, double at) {
    const std::uint64_t id =
        t.begin_span(ctx, des::SpanPhase::kCompute, "test", state, sec(at));
    t.set_lane(id, des::Lane{lane});
    return id;
  }
  void leave(std::uint64_t id, double at) { t.end_span(id, sec(at)); }
  des::TraceContext send(std::uint32_t from, std::uint32_t to,
                         std::uint64_t bytes, double at) {
    return t.send_message(ctx, "test", from, to, bytes, sec(at));
  }
  void recv(des::TraceContext sent, std::uint32_t at_lane, double at) {
    t.recv_message(sent, "test", at_lane, sec(at));
  }
  const obs::SpanFile& file(double end) {
    t.close_trace(ctx, sec(end));
    return t.file();
  }
};

TEST(TraceTest, StateTimesAttributed) {
  Lanes l;
  const auto compute0 = l.enter(0, "compute", 0.0);
  const auto compute1 = l.enter(1, "compute", 1.0);
  const auto comm0 = l.enter(0, "comm", 2.0);  // nested
  l.leave(comm0, 3.0);
  l.leave(compute1, 4.0);
  l.leave(compute0, 5.0);

  const obs::LaneStats st = obs::lane_stats(l.file(5.0));
  EXPECT_EQ(st.lanes, 2);
  EXPECT_EQ(st.states, (std::vector<std::string>{"compute", "comm"}));
  EXPECT_EQ(st.state_ps.at({0, "compute"}), sec(4.0).ps());  // 2 + 2
  EXPECT_EQ(st.state_ps.at({0, "comm"}), sec(1.0).ps());
  EXPECT_EQ(st.state_ps.at({1, "compute"}), sec(3.0).ps());
}

TEST(TraceTest, MessageMatrix) {
  Lanes l;
  const auto first = l.send(0, 1, 1000, 0.1);
  l.send(0, 1, 2000, 0.2);
  l.send(2, 0, 512, 0.3);
  l.recv(first, 1, 0.4);

  const obs::SpanFile& f = l.file(0.4);
  const obs::LaneStats st = obs::lane_stats(f);
  EXPECT_EQ(st.messages.at({0, 1}), 2u);
  EXPECT_EQ(st.bytes.at({0, 1}), 3000u);
  EXPECT_EQ(st.messages.at({2, 0}), 1u);
  EXPECT_EQ(st.messages.count({1, 0}), 0u);
  EXPECT_EQ(st.total_messages, 3u);
  EXPECT_EQ(st.total_bytes, 3512u);
  EXPECT_TRUE(st.states.empty());  // messages are not states
  EXPECT_EQ(obs::msg_matrix(f),
            "messages (rows: from, cols: to)\n      \t0\t1\t2\n"
            "  0  \t0\t2\t0\n  1  \t0\t0\t0\n  2  \t1\t0\t0\n"
            "bytes (rows: from, cols: to)\n      \t0\t1\t2\n"
            "  0  \t0\t3000\t0\n  1  \t0\t0\t0\n  2  \t512\t0\t0\n");
}

TEST(TraceTest, GanttRendersStates) {
  Lanes l;
  const auto a = l.enter(0, "alpha", 0.0);
  const auto b = l.enter(1, "beta", 0.5);
  l.leave(a, 1.0);
  l.leave(b, 1.0);
  const std::string g = obs::gantt(l.file(1.0), 40);
  EXPECT_NE(g.find('a'), std::string::npos);
  EXPECT_NE(g.find('b'), std::string::npos);
  EXPECT_NE(g.find("rank  0"), std::string::npos);
}

TEST(TraceTest, ProfileMentionsStatesAndMessages) {
  Lanes l;
  const auto s = l.enter(0, "work", 0.0);
  l.send(0, 0, 42, 1.0);
  l.leave(s, 2.5);
  const std::string p = obs::profile(l.file(2.5));
  EXPECT_NE(p.find("work"), std::string::npos);
  EXPECT_NE(p.find("messages: 1"), std::string::npos);
}

// Exact strings, the ones the retired enter/leave recorder printed for the
// same sequences: a nested state is timed innermost-first and painted over
// by the state that holds it.
TEST(TraceTest, NestedStatesMatchVampirGolden) {
  {
    Lanes l;
    const auto compute0 = l.enter(0, "compute", 0.0);
    const auto compute1 = l.enter(1, "compute", 1.0);
    const auto comm0 = l.enter(0, "comm", 2.0);
    l.leave(comm0, 3.0);
    l.leave(compute1, 4.0);
    l.leave(compute0, 5.0);
    const obs::SpanFile& f = l.file(5.0);
    EXPECT_EQ(obs::profile(f),
              "state time profile (seconds):\n"
              "  rank 0:  compute=4  comm=1\n"
              "  rank 1:  compute=3\n"
              "messages: 0, bytes: 0\n");
    EXPECT_EQ(obs::gantt(f, 40),
              "rank  0 |cccccccccccccccccccccccccccccccccccccccc|\n"
              "rank  1 |........ccccccccccccccccccccccccc.......|\n");
  }
  {
    // An inner state ending with its holder, and a zero-width state.
    Lanes l;
    const auto solve0 = l.enter(0, "solve", 0.0);
    l.leave(l.enter(2, "exchange", 0.5), 0.5);
    const auto solve1 = l.enter(1, "solve", 1.0);
    l.leave(l.enter(0, "exchange", 2.0), 3.0);
    const auto exch1 = l.enter(1, "exchange", 3.0);
    l.leave(exch1, 4.0);
    l.leave(solve1, 4.0);
    const auto solve2 = l.enter(2, "solve", 4.5);
    l.leave(solve0, 5.0);
    l.leave(solve2, 5.0);
    const obs::SpanFile& f = l.file(5.0);
    EXPECT_EQ(obs::profile(f),
              "state time profile (seconds):\n"
              "  rank 0:  solve=4  exchange=1\n"
              "  rank 1:  solve=2  exchange=1\n"
              "  rank 2:  solve=0.5\n"
              "messages: 0, bytes: 0\n");
    EXPECT_EQ(obs::gantt(f, 30),
              "rank  0 |ssssssssssssssssssssssssssssss|\n"
              "rank  1 |......sssssssssssssssssss.....|\n"
              "rank  2 |...e.......................sss|\n");
  }
}

// A concurrency-2 stage overlaps items on its lane: overlapping spans of
// one state count once, and the messages to the next stage are counted.
TEST(TraceTest, OverlappingStageMatchesVampirGolden) {
  des::Scheduler sched;
  obs::SpanTracer spans;
  sched.set_span_hook(&spans);
  flow::StageGraph g(sched);
  flow::StageConfig work;
  work.name = "overlap";
  work.concurrency = 2;
  work.body = [&sched](flow::StageContext ctx, flow::Item& it,
                       flow::Done done) {
    const des::TraceContext sent = ctx.trace_send(
        ctx.stage + 1, units::Bytes{1000u + static_cast<unsigned>(it.index)});
    sched.schedule_after(sec(1.0 + 0.25 * it.index), [ctx, sent, done]() {
      ctx.trace_recv(ctx.stage + 1, sent);
      done();
    });
  };
  g.add_stage(std::move(work));
  g.add_stage(flow::delay_stage("tail", sec(0.3)));
  for (int i = 0; i < 4; ++i)
    sched.schedule_at(sec(0.4 * i), [&g, i] { g.push(i); });
  sched.run();

  const obs::SpanFile& f = spans.file();
  EXPECT_EQ(obs::profile(f),
            "state time profile (seconds):\n"
            "  rank 0:  overlap=3.4\n"
            "  rank 1:  tail=1.2\n"
            "messages: 4, bytes: 4006\n");
  EXPECT_EQ(obs::gantt(f, 48),
            "rank  0 |ooooooooooooooooooooooooooooooooooooooooooooo...|\n"
            "rank  1 |............ttttt....ttttt......ttttt.......tttt|\n");
}

// --- the spans reader rejects corrupt artifacts ------------------------------

// A small valid artifact: a state on lane 0 and a message to lane 1.
std::string good_spans() {
  Lanes l;
  const auto work = l.enter(0, "work", 1.0);
  l.recv(l.send(0, 1, 4096, 1.5), 1, 1.75);
  l.leave(work, 2.0);
  l.t.close_trace(l.ctx, sec(2.0));
  std::ostringstream os;
  l.t.write_json(os, "good");
  return os.str();
}

// Load an artifact, expecting a rejection whose message contains `needle`
// (the reader must say *what* was wrong).
void expect_rejects(const std::string& artifact, const std::string& needle) {
  std::istringstream in(artifact);
  obs::SpanFile f;
  std::string error;
  ASSERT_FALSE(obs::load_spans(in, "t", f, error))
      << "expected rejection mentioning \"" << needle << "\"";
  EXPECT_NE(error.find(needle), std::string::npos) << "actual: " << error;
}

std::string replaced(std::string s, const std::string& from,
                     const std::string& to) {
  const auto at = s.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) s.replace(at, from.size(), to);
  return s;
}

TEST(TraceTest, ReadRejectsGarbage) {
  expect_rejects("not a trace file", "not a spans artifact");
}

TEST(TraceTest, ReadRejectsWrongVersion) {
  expect_rejects(replaced(good_spans(), "{\"gtw_spans\": 1",
                          "{\"gtw_spans\": 2"),
                 "{\"gtw_spans\": 1} header");
}

TEST(TraceTest, ReadRejectsLyingEventCountAsTruncation) {
  expect_rejects(replaced(good_spans(), "\"spans_total\": 4",
                          "\"spans_total\": 1152921504606846976"),
                 "truncated");
}

TEST(TraceTest, ReadRejectsTruncatedEventPayload) {
  std::string b = good_spans();
  b.resize(b.rfind("{\"spans_total\"") - 40);  // into the last span line
  expect_rejects(b, "malformed span line");
}

TEST(TraceTest, ReadRejectsUnknownEventKind) {
  expect_rejects(replaced(good_spans(), "{\"spans_total\"",
                          "{\"event\": 3}\n{\"spans_total\""),
                 "unrecognised line");
}

TEST(TraceTest, ReadRejectsEventRankOutOfRange) {
  expect_rejects(replaced(good_spans(), "\"lane\": 1}", "\"lane\": -1}"),
                 "\"lane\" -1 is not a lane");
}

TEST(TraceTest, ReadRejectsAbsurdRankCount) {
  expect_rejects(replaced(good_spans(), "\"to\": 1,", "\"to\": 99999999999,"),
                 "\"to\" 99999999999 is not a lane");
}

TEST(TraceTest, ReadRejectsEnterStateOutOfRange) {
  expect_rejects(replaced(good_spans(), "\"parent\": 3,", "\"parent\": 99,"),
                 "names parent 99");
}

}  // namespace
}  // namespace gtw
