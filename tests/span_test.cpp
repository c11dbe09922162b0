// Causal span tracing (DESIGN.md section 13): SpanTracer bookkeeping,
// layer filtering, abort cascades, the write_json -> load_spans round
// trip, latency-budget sweep exactness, and the lifecycle edge cases the
// WAN makes interesting — spans held open across a PathTransport stall
// reset, a collective's WAN legs under one trace, a zero-leak census at
// drain, the guarantee that attaching the tracer does not perturb the
// simulation, a host that takes a packet of another trace handing its
// caller back the caller's own context, and tracer and scheduler dying in
// either order while spans are open (and the GTW-San check hook and
// scheduler, and the path check observer and its path, likewise).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/attach.hpp"
#include "check/monitor.hpp"
#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "des/span_hook.hpp"
#include "meta/communicator.hpp"
#include "meta/metacomputer.hpp"
#include "meta/path_transport.hpp"
#include "net/atm.hpp"
#include "net/fault.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"

namespace gtw::obs {
namespace {

using des::SimTime;

SimTime ms(int m) { return SimTime::milliseconds(m); }
SimTime ps(std::int64_t p) { return SimTime::picoseconds(p); }

// --- tracer unit tests ------------------------------------------------------

TEST(SpanTracerTest, MintBeginEndCloseBookkeeping) {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(100));
  EXPECT_TRUE(ctx.valid());
  EXPECT_EQ(t.open_traces(), 1u);
  EXPECT_EQ(t.open_spans(), 1u);  // the root span

  const std::uint64_t s1 =
      t.begin_span(ctx, des::SpanPhase::kQueueWait, "flow", "q", ps(100));
  const std::uint64_t s2 =
      t.begin_span(des::under(ctx, s1), des::SpanPhase::kCompute, "flow",
                   "body", ps(200));
  EXPECT_EQ(t.open_spans(), 3u);
  EXPECT_EQ(t.file().spans[s2 - 1].parent, s1);  // nested under the wait span

  t.end_span(s2, ps(300));
  t.end_span(s1, ps(400));
  EXPECT_EQ(t.open_spans(), 1u);
  t.close_trace(ctx, ps(500));
  EXPECT_EQ(t.open_spans(), 0u);
  EXPECT_EQ(t.open_traces(), 0u);
  EXPECT_EQ(t.file().traces[ctx.trace_id - 1].status, TraceStatus::kClosed);
  // Exact integer-picosecond stamps survive.
  EXPECT_EQ(t.file().spans[s1 - 1].begin_ps, 100);
  EXPECT_EQ(t.file().spans[s1 - 1].end_ps, 400);
}

TEST(SpanTracerTest, DisabledLayerYieldsSpanZeroAndZeroIsInert) {
  SpanTracer t;
  t.enable_layer("link", false);
  const des::TraceContext ctx = t.mint("test.origin", ps(0));
  const std::uint64_t s =
      t.begin_span(ctx, des::SpanPhase::kSerialize, "link", "wire", ps(0));
  EXPECT_EQ(s, 0u);
  EXPECT_EQ(t.open_spans(), 1u);  // only the root
  // Ending / aborting span 0 must be a no-op everywhere.
  t.end_span(0, ps(10));
  t.abort_span(0, ps(10));
  EXPECT_EQ(t.open_spans(), 1u);
  // An invalid (zero) context never records anything either.
  EXPECT_EQ(t.begin_span(des::TraceContext{}, des::SpanPhase::kCompute,
                         "flow", "x", ps(0)),
            0u);
  t.close_trace(ctx, ps(20));
}

TEST(SpanTracerTest, AbortTraceCascadesAndLateEndIsNoOp) {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(0));
  const std::uint64_t s1 =
      t.begin_span(ctx, des::SpanPhase::kTransfer, "meta", "msg", ps(0));
  const std::uint64_t s2 = t.begin_span(des::under(ctx, s1),
                                        des::SpanPhase::kQueueWait, "meta",
                                        "chunk", ps(10));
  ASSERT_EQ(t.open_spans(), 3u);

  t.abort_trace(ctx, "unreachable", ps(50));
  EXPECT_EQ(t.open_spans(), 0u);
  EXPECT_EQ(t.open_traces(), 0u);
  const TraceRec& trace = t.file().traces[ctx.trace_id - 1];
  EXPECT_EQ(trace.status, TraceStatus::kAborted);
  EXPECT_EQ(trace.reason, "unreachable");
  EXPECT_EQ(t.file().spans[s1 - 1].status, SpanStatus::kAborted);
  EXPECT_EQ(t.file().spans[s2 - 1].status, SpanStatus::kAborted);

  // A late copy of the dropped message tries to end its spans: no-op, the
  // abort stamps stand.
  t.end_span(s2, ps(900));
  EXPECT_EQ(t.file().spans[s2 - 1].end_ps, 50);
  EXPECT_EQ(t.file().spans[s2 - 1].status, SpanStatus::kAborted);
  // Double-close of the aborted trace is equally inert.
  t.close_trace(ctx, ps(900));
  EXPECT_EQ(trace.status, TraceStatus::kAborted);
}

// --- artifact round trip and analysis ---------------------------------------

TEST(SpanAnalysisTest, WriteJsonRoundTripsThroughLoader) {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(1'000));
  const std::uint64_t s1 =
      t.begin_span(ctx, des::SpanPhase::kSerialize, "link", "wire", ps(1'500));
  t.end_span(s1, ps(2'500));
  t.close_trace(ctx, ps(3'000));

  std::ostringstream os;
  t.write_json(os, "round_trip");
  std::istringstream is(os.str());
  SpanFile f;
  std::string error;
  ASSERT_TRUE(load_spans(is, "round_trip", f, error)) << error;
  EXPECT_EQ(f.label, "round_trip");
  ASSERT_EQ(f.traces.size(), 1u);
  ASSERT_EQ(f.spans.size(), 2u);
  for (const SpanRec& s : f.spans) EXPECT_EQ(s.status, SpanStatus::kOk);
  EXPECT_EQ(f.traces[0].status, TraceStatus::kClosed);
  EXPECT_EQ(f.spans[1].phase, des::SpanPhase::kSerialize);
  EXPECT_EQ(f.spans[1].layer, "link");
  EXPECT_EQ(f.spans[1].begin_ps, 1'500);
  EXPECT_EQ(f.spans[1].end_ps, 2'500);
  EXPECT_EQ(f.spans[1].parent, f.traces[0].root);
}

TEST(SpanAnalysisTest, WriteJsonRoundTripsLaneKeys) {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(1'000));
  const std::uint64_t s1 =
      t.begin_span(ctx, des::SpanPhase::kCompute, "flow", "body", ps(1'500));
  t.set_lane(s1, des::Lane{3});
  t.end_span(s1, ps(2'500));
  const des::TraceContext sent =
      t.send_message(ctx, "flow", 3, 5, 64, ps(2'500));
  t.recv_message(sent, "flow", 5, ps(2'750));
  t.close_trace(ctx, ps(3'000));

  std::ostringstream os;
  t.write_json(os, "lanes");
  std::istringstream is(os.str());
  SpanFile f;
  std::string error;
  ASSERT_TRUE(load_spans(is, "lanes", f, error)) << error;
  // A state lane, then a zero-width send naming its peer and size, and its
  // recv parented on the send.
  ASSERT_EQ(f.spans.size(), 4u);
  EXPECT_EQ(f.spans[1].lane, 3);
  EXPECT_EQ(f.spans[1].to, -1);
  EXPECT_EQ(f.spans[2].lane, 3);
  EXPECT_EQ(f.spans[2].to, 5);
  EXPECT_EQ(f.spans[2].bytes, 64u);
  EXPECT_EQ(f.spans[2].begin_ps, f.spans[2].end_ps);
  EXPECT_EQ(f.spans[3].lane, 5);
  EXPECT_EQ(f.spans[3].parent, f.spans[2].id);
  EXPECT_EQ(f.spans[0].lane, -1);  // the root is on no lane
}

TEST(SpanAnalysisTest, SweepPartitionsRootIntervalExactly) {
  // Root [0, 1000); child serialize [100, 400); grandchild propagate
  // [200, 300).  Innermost-active attribution: root owns [0,100) and
  // [400,1000), serialize owns [100,200) and [300,400), propagate owns
  // [200,300) — phase sums must equal the root duration exactly.
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(0));
  const std::uint64_t s1 =
      t.begin_span(ctx, des::SpanPhase::kSerialize, "link", "wire", ps(100));
  const std::uint64_t s2 = t.begin_span(des::under(ctx, s1),
                                        des::SpanPhase::kPropagate, "link",
                                        "fiber", ps(200));
  t.end_span(s2, ps(300));
  t.end_span(s1, ps(400));
  t.close_trace(ctx, ps(1'000));

  std::ostringstream os;
  t.write_json(os, "sweep");
  std::istringstream is(os.str());
  SpanFile f;
  std::string error;
  ASSERT_TRUE(load_spans(is, "sweep", f, error)) << error;

  const PhaseBudget b = budget(f);
  EXPECT_EQ(b.closed_traces, 1u);
  EXPECT_EQ(b.total_ps, 1'000);
  EXPECT_EQ(b.phase_ps.at("root"), 700);
  EXPECT_EQ(b.phase_ps.at("serialize"), 200);
  EXPECT_EQ(b.phase_ps.at("propagate"), 100);
  std::int64_t sum = 0;
  for (const auto& [phase, t_ps] : b.phase_ps) sum += t_ps;
  EXPECT_EQ(sum, b.total_ps);

  const auto segs = sweep_trace(f, f.traces[0].id);
  ASSERT_EQ(segs.size(), 5u);
  EXPECT_EQ(segs.front().span->phase, des::SpanPhase::kRoot);
  EXPECT_EQ(segs[2].span->phase, des::SpanPhase::kPropagate);
  // Segments are contiguous: each begins where the previous ended.
  for (std::size_t i = 1; i < segs.size(); ++i)
    EXPECT_EQ(segs[i].begin_ps, segs[i - 1].end_ps);
}

TEST(SpanAnalysisTest, LoaderRejectsTruncatedArtifact) {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(0));
  t.close_trace(ctx, ps(10));
  std::ostringstream os;
  t.write_json(os, "truncated");
  // Drop the footer line — the signature of a run killed mid-write.
  std::string body = os.str();
  body.erase(body.rfind("{\"spans_total\""));
  std::istringstream is(body);
  SpanFile f;
  std::string error;
  EXPECT_FALSE(load_spans(is, "truncated", f, error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

// A valid artifact: root 1 of trace 1, span 2 under it, and a message
// (send 3 on lane 0, recv 4 on lane 1).
std::string small_artifact() {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(0));
  const std::uint64_t s = t.begin_span(ctx, des::SpanPhase::kCompute, "flow",
                                       "body", ps(10));
  t.end_span(s, ps(20));
  t.recv_message(t.send_message(ctx, "flow", 0, 1, 8, ps(20)), "flow", 1,
                 ps(30));
  t.close_trace(ctx, ps(40));
  std::ostringstream os;
  t.write_json(os, "small");
  return os.str();
}

std::string with(std::string s, const std::string& from,
                 const std::string& to) {
  const auto at = s.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) s.replace(at, from.size(), to);
  return s;
}

// Loads `artifact`, expecting a one-line rejection that contains `needle`.
void expect_rejected(const std::string& artifact, const std::string& needle) {
  std::istringstream is(artifact);
  SpanFile f;
  std::string error;
  ASSERT_FALSE(load_spans(is, "t", f, error)) << needle;
  EXPECT_NE(error.find(needle), std::string::npos) << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << error;
}

TEST(SpanAnalysisTest, LoaderAcceptsTheSmallArtifact) {
  std::istringstream is(small_artifact());
  SpanFile f;
  std::string error;
  EXPECT_TRUE(load_spans(is, "t", f, error)) << error;
}

TEST(SpanAnalysisTest, LoaderRejectsIntegerFieldThatIsNotANumber) {
  expect_rejected(with(small_artifact(), "\"end_ps\": 20,", "\"end_ps\": zz,"),
                  "\"end_ps\" is not an integer");
  expect_rejected(with(small_artifact(), "\"root\": 1,", "\"root\": -1,"),
                  "\"root\" is not an integer");
  expect_rejected(with(small_artifact(), "\"spans_total\": 4",
                       "\"spans_total\": 4x"),
                  "\"spans_total\" is not an integer");
}

TEST(SpanAnalysisTest, LoaderRejectsSpanEndingBeforeItBegins) {
  expect_rejected(with(small_artifact(), "\"end_ps\": 20,", "\"end_ps\": 9,"),
                  "span 2 ends before it begins");
}

TEST(SpanAnalysisTest, LoaderRejectsNegativeTimestamp) {
  // Span 2 is the [10, 20) body; span 1 the [0, 40) root.
  expect_rejected(
      with(small_artifact(), "\"begin_ps\": 10,", "\"begin_ps\": -5,"),
      "span 2 has a negative timestamp");
  expect_rejected(
      with(small_artifact(), "\"end_ps\": 40,", "\"end_ps\": -1,"),
      "span 1 has a negative timestamp");
}

TEST(SpanAnalysisTest, LoaderRejectsRootNamingNoSpanOfItsTrace) {
  expect_rejected(with(small_artifact(), "\"root\": 1,", "\"root\": 9,"),
                  "trace 1 names root span 9");
  // A span that exists but belongs to another trace is no root either.
  expect_rejected(with(small_artifact(), "{\"span\": 1, \"trace\": 1,",
                       "{\"span\": 1, \"trace\": 2,"),
                  "trace 1 names root span 1");
}

TEST(SpanAnalysisTest, LoaderRejectsParentNamingNoSpanOfItsTrace) {
  expect_rejected(with(small_artifact(), "{\"span\": 3, \"trace\": 1,",
                       "{\"span\": 3, \"trace\": 2,"),
                  "names parent 1, which is not a span of trace 2");
}

TEST(SpanAnalysisTest, LoaderRejectsMalformedLaneKeys) {
  expect_rejected(with(small_artifact(), "\"lane\": 1}", "\"lane\": x}"),
                  "\"lane\" is not an integer");
  expect_rejected(with(small_artifact(), "\"lane\": 0, ", ""),
                  "\"to\"/\"bytes\" without \"lane\"");
  expect_rejected(with(small_artifact(), ", \"bytes\": 8", ""),
                  "missing \"bytes\"");
  expect_rejected(with(small_artifact(), "\"lane\": 1}",
                       "\"lane\": 1, \"bytes\": 8}"),
                  "missing \"to\"");
}

TEST(SpanAnalysisTest, LoaderRejectsRepeatedTraceLine) {
  // The trace listed twice, with a footer that counts both: the budget
  // would count its root twice.
  const std::string line =
      "{\"trace\": 1, \"root\": 1, \"origin\": \"test.origin\", "
      "\"status\": \"closed\"}\n";
  expect_rejected(with(with(small_artifact(), line, line + line),
                       "\"traces_total\": 1", "\"traces_total\": 2"),
                  "non-sequential trace id 1");
}

TEST(SpanAnalysisTest, LoaderRejectsSpanNamingNoTraceLine) {
  // Span 2 (the body, which no span names as parent) moved to trace 2,
  // which has no trace line.
  expect_rejected(with(small_artifact(), "{\"span\": 2, \"trace\": 1, "
                                         "\"parent\": 1,",
                       "{\"span\": 2, \"trace\": 2, \"parent\": 0,"),
                  "span 2 names trace 2, which has no trace line");
}

TEST(SpanAnalysisTest, LoaderRejectsUnknownSpanStatus) {
  expect_rejected(with(small_artifact(), "\"end_ps\": 20, \"status\": \"ok\"",
                       "\"end_ps\": 20, \"status\": \"bogus\""),
                  "malformed span line: unknown \"status\" \"bogus\"");
}

TEST(SpanAnalysisTest, LoaderRejectsUnknownTraceStatus) {
  // Read as anything but closed, the trace would drop out of the budget.
  expect_rejected(with(small_artifact(), "\"status\": \"closed\"",
                       "\"status\": \"finished\""),
                  "malformed trace line: unknown \"status\" \"finished\"");
}

TEST(SpanAnalysisTest, LoaderRejectsUnknownPhase) {
  expect_rejected(with(small_artifact(), "\"phase\": \"compute\"",
                       "\"phase\": \"computing\""),
                  "malformed span line: unknown \"phase\" \"computing\"");
}

TEST(SpanAnalysisTest, LoaderRejectsOpenSpanCountMismatch) {
  expect_rejected(with(small_artifact(), "\"open_spans\": 0",
                       "\"open_spans\": 7"),
                  "footer promises 7 open span(s), file has 0");
}

// --- the tracer's record survives the artifact format -----------------------

// A seeded tracer run: traces minted as time goes, spans of every phase
// nested under earlier spans (also under closed traces and ended spans, as
// late copies do), zero-width spans, lane states with and without a send's
// keys, messages, and traces closed, aborted with what they hold open, or
// left open with their spans.
void random_run(des::Rng& rng, SpanTracer& t) {
  std::int64_t now = 0;
  std::vector<des::TraceContext> traces;
  std::vector<des::TraceContext> anchors;  // a trace root or a span under it
  std::vector<std::uint64_t> spans;
  int phase = 0;  // cycles through every phase
  constexpr int kPhases = static_cast<int>(des::SpanPhase::kAborted) + 1;
  const char* layers[] = {"link", "tcp", "meta", "flow"};
  const std::uint64_t steps = 10 + rng.uniform_int(70);
  for (std::uint64_t k = 0; k < steps; ++k) {
    now += static_cast<std::int64_t>(rng.uniform_int(3)) * 10;  // 0: same ps
    const std::uint64_t action = anchors.empty() ? 0 : rng.uniform_int(8);
    const des::TraceContext at =
        anchors.empty() ? des::TraceContext{}
                        : anchors[rng.uniform_int(anchors.size())];
    const std::uint64_t span =
        spans.empty() ? 0 : spans[rng.uniform_int(spans.size())];
    const des::TraceContext trace =
        traces.empty() ? des::TraceContext{}
                       : traces[rng.uniform_int(traces.size())];
    const std::int64_t lane = static_cast<std::int64_t>(rng.uniform_int(4));
    switch (action) {
      case 0:
        traces.push_back(t.mint("test.origin", ps(now)));
        anchors.push_back(traces.back());
        break;
      case 1:
      case 2: {
        const std::uint64_t id = t.begin_span(
            at, static_cast<des::SpanPhase>(phase++ % kPhases),
            layers[rng.uniform_int(4)], "work", ps(now));
        spans.push_back(id);
        anchors.push_back(des::under(at, id));
        break;
      }
      case 3:
        t.end_span(span, ps(now));
        break;
      case 4:
        t.abort_span(span, ps(now));
        break;
      case 5: {  // a state or a send, maybe with a peer or lane of -1
        const auto draw = [&rng] {
          return static_cast<std::int64_t>(rng.uniform_int(4)) - 1;
        };
        t.set_lane(span, des::Lane{draw(), draw(), rng.uniform_int(100)});
        break;
      }
      case 6:
        t.recv_message(
            t.send_message(at, "meta", lane, (lane + 1) % 4, 64, ps(now)),
            "meta", (lane + 1) % 4, ps(now + 5));
        break;
      case 7:
        if (rng.bernoulli(0.5))
          t.close_trace(trace, ps(now));
        else
          t.abort_trace(trace, rng.bernoulli(0.5) ? "cut" : "", ps(now));
        break;
    }
  }
}

TEST(SpanAnalysisTest, TracerRecordRoundTripsExactly) {
  des::Rng rng{0x7265636f7264ULL};
  std::size_t open = 0, aborted_traces = 0, sends = 0;
  for (int round = 0; round < 200; ++round) {
    SpanTracer t;
    random_run(rng, t);
    const SpanFile& mem = t.file();
    std::ostringstream os;
    t.write_json(os, "round");
    std::istringstream is(os.str());
    SpanFile f;
    std::string error;
    ASSERT_TRUE(load_spans(is, "round", f, error)) << round << ": " << error;
    EXPECT_EQ(f.label, "round");

    ASSERT_EQ(f.traces.size(), mem.traces.size()) << round;
    for (std::size_t i = 0; i < f.traces.size(); ++i) {
      const TraceRec& a = mem.traces[i];
      const TraceRec& b = f.traces[i];
      EXPECT_EQ(a.id, b.id) << round;
      EXPECT_EQ(a.root, b.root) << round;
      EXPECT_EQ(a.origin, b.origin) << round;
      EXPECT_EQ(a.status, b.status) << round;
      EXPECT_EQ(a.reason, b.reason) << round;
      if (a.status == TraceStatus::kAborted) ++aborted_traces;
    }
    ASSERT_EQ(f.spans.size(), mem.spans.size()) << round;
    for (std::size_t i = 0; i < f.spans.size(); ++i) {
      const SpanRec& a = mem.spans[i];
      const SpanRec& b = f.spans[i];
      const std::string at =
          "round " + std::to_string(round) + " span " + std::to_string(a.id);
      EXPECT_EQ(a.id, b.id) << at;
      EXPECT_EQ(a.trace, b.trace) << at;
      EXPECT_EQ(a.parent, b.parent) << at;
      EXPECT_EQ(a.phase, b.phase) << at;
      EXPECT_EQ(a.layer, b.layer) << at;
      EXPECT_EQ(a.name, b.name) << at;
      EXPECT_EQ(a.begin_ps, b.begin_ps) << at;
      EXPECT_EQ(a.end_ps, b.end_ps) << at;
      EXPECT_EQ(a.status, b.status) << at;
      EXPECT_EQ(a.lane, b.lane) << at;
      EXPECT_EQ(a.to, b.to) << at;
      EXPECT_EQ(a.bytes, b.bytes) << at;
      if (a.status == SpanStatus::kOpen) {
        EXPECT_EQ(a.end_ps, a.begin_ps) << at;  // what the writer prints
        ++open;
      }
      if (a.to >= 0) ++sends;
    }
    // The loaded record writes the same bytes.
    std::ostringstream again;
    write_spans(again, f, f.label);
    EXPECT_EQ(again.str(), os.str()) << round;
  }
  EXPECT_GT(open, 0u);
  EXPECT_GT(aborted_traces, 0u);
  EXPECT_GT(sends, 0u);
}

// --- seeded corruption of a tracer-written artifact -------------------------

// Every kind of line: closed, aborted, open and zero-length traces, nested
// and overlapping spans with equal begins, an open span, lane states and a
// message.
std::string mixed_artifact() {
  SpanTracer t;
  const des::TraceContext a = t.mint("test.a", ps(0));
  const std::uint64_t a1 =
      t.begin_span(a, des::SpanPhase::kSerialize, "link", "wire", ps(100));
  const std::uint64_t a2 = t.begin_span(
      des::under(a, a1), des::SpanPhase::kPropagate, "link", "fiber", ps(100));
  t.end_span(a2, ps(300));
  t.end_span(a1, ps(450));
  const std::uint64_t a3 =
      t.begin_span(a, des::SpanPhase::kCompute, "flow", "body", ps(400));
  t.set_lane(a3, des::Lane{0});
  t.end_span(a3, ps(900));
  t.recv_message(t.send_message(a, "flow", 0, 1, 64, ps(900)), "flow", 1,
                 ps(950));
  t.close_trace(a, ps(1'000));

  const des::TraceContext b = t.mint("test.b", ps(200));
  EXPECT_NE(t.begin_span(b, des::SpanPhase::kQueueWait, "link", "q", ps(250)),
            0u);
  t.abort_trace(b, "cut", ps(600));  // aborts the queue wait with it
  const des::TraceContext c = t.mint("test.c", ps(700));
  EXPECT_NE(t.begin_span(c, des::SpanPhase::kTransfer, "meta", "msg", ps(800)),
            0u);  // left open, as is the trace
  const des::TraceContext d = t.mint("test.d", ps(1'000));
  t.close_trace(d, ps(1'000));
  std::ostringstream os;
  t.write_json(os, "mixed");
  return os.str();
}

TEST(SpanAnalysisTest, LoaderRejectsOpenSpanNotEndingWhereItBegins) {
  // Stretched, the open span would own the time of its trace's root.
  expect_rejected(with(mixed_artifact(),
                       "\"end_ps\": 800, \"status\": \"open\"",
                       "\"end_ps\": 900, \"status\": \"open\""),
                  "open span 10 does not end where it begins");
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string l; std::getline(is, l);) lines.push_back(l);
  return lines;
}

std::string joined(const std::vector<std::string>& lines, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n && i < lines.size(); ++i)
    out += lines[i] + '\n';
  return out;
}

bool starts(const std::string& line, const char* prefix) {
  return line.rfind(prefix, 0) == 0;
}

// The span lines and the trace lines among `lines`.
std::pair<std::size_t, std::size_t> records(
    const std::vector<std::string>& lines) {
  std::size_t spans = 0, traces = 0;
  for (const std::string& l : lines) {
    if (starts(l, "{\"span\"")) ++spans;
    if (starts(l, "{\"trace\"")) ++traces;
  }
  return {spans, traces};
}

// `lines` with the footer's span and trace counts rewritten to the lines
// present, so that only the id checks can catch a repeated line.
std::vector<std::string> footer_matched(std::vector<std::string> lines) {
  const auto [spans, traces] = records(lines);
  for (std::string& l : lines) {
    const auto tail = l.find(", \"open_spans\"");
    if (starts(l, "{\"spans_total\"") && tail != std::string::npos)
      l = "{\"spans_total\": " + std::to_string(spans) +
          ", \"traces_total\": " + std::to_string(traces) + l.substr(tail);
  }
  return lines;
}

// One mutant must be rejected with a one-line reason, or load with footer
// counts equal to the lines present, trace ids 1..T, and a budget that is
// exact or throws std::overflow_error.  Returns whether it loaded.
bool loads_consistently(const std::string& text, const std::string& what) {
  std::istringstream is(text);
  SpanFile f;
  std::string error;
  if (!load_spans(is, what, f, error)) {
    EXPECT_FALSE(error.empty()) << what;
    EXPECT_EQ(error.find('\n'), std::string::npos) << what << ": " << error;
    return false;
  }
  const auto [spans, traces] = records(lines_of(text));
  EXPECT_EQ(f.spans.size(), spans) << what;
  EXPECT_EQ(f.traces.size(), traces) << what;
  for (std::size_t i = 0; i < f.traces.size(); ++i)
    EXPECT_EQ(f.traces[i].id, i + 1) << what;
  try {
    const PhaseBudget b = budget(f);
    std::uint64_t sum = 0;  // unsigned: a wrong budget must not overflow
    for (const auto& [phase, t_ps] : b.phase_ps)
      sum += static_cast<std::uint64_t>(t_ps);
    EXPECT_EQ(sum, static_cast<std::uint64_t>(b.total_ps)) << what;
  } catch (const std::overflow_error&) {
  }
  return true;
}

TEST(SpanAnalysisTest, CorruptedArtifactsAreRejectedOrLoadConsistently) {
  const std::string base = mixed_artifact();
  const std::vector<std::string> lines = lines_of(base);
  ASSERT_TRUE(loads_consistently(base, "base"));
  des::Rng rng{0x7370616e73ULL};

  // Cut at every line boundary (only the whole file loads), and at one
  // seeded byte inside each line.
  for (std::size_t n = 0; n <= lines.size(); ++n)
    EXPECT_EQ(loads_consistently(joined(lines, n), "cut " + std::to_string(n)),
              n == lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].size() < 2) continue;
    const std::size_t at = 1 + rng.uniform_int(lines[i].size() - 1);
    EXPECT_FALSE(loads_consistently(joined(lines, i) + lines[i].substr(0, at),
                                    "cut in line " + std::to_string(i)));
  }

  // Seeded line mutations, each tried as is and with the footer's counts
  // matched to the lines present.
  std::size_t loaded = 0;
  for (int m = 0; m < 400; ++m) {
    std::vector<std::string> mutant = lines;
    const std::size_t i = rng.uniform_int(mutant.size());
    const std::uint64_t kind = rng.uniform_int(4);
    const bool repeats_record = kind == 1 && (starts(mutant[i], "{\"span\"") ||
                                              starts(mutant[i], "{\"trace\""));
    if (kind == 0) {
      mutant.erase(mutant.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (kind == 1) {
      mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(i),
                    std::string(mutant[i]));
    } else if (kind == 2 && i + 1 < mutant.size()) {
      std::swap(mutant[i], mutant[i + 1]);
    } else if (kind == 3) {
      std::vector<std::size_t> digits;
      for (std::size_t k = 0; k < mutant[i].size(); ++k)
        if (mutant[i][k] >= '0' && mutant[i][k] <= '9') digits.push_back(k);
      if (digits.empty()) continue;
      char& c = mutant[i][digits[rng.uniform_int(digits.size())]];
      const int shift = 1 + static_cast<int>(rng.uniform_int(9));  // 1..9
      c = static_cast<char>('0' + (c - '0' + shift) % 10);
    }
    const std::string what = "mutation " + std::to_string(m) + " kind " +
                             std::to_string(kind) + " line " +
                             std::to_string(i);
    for (const auto& text : {joined(mutant, mutant.size()),
                             joined(footer_matched(mutant), mutant.size())}) {
      const bool ok = loads_consistently(text, what);
      if (ok) ++loaded;
      EXPECT_FALSE(ok && repeats_record) << what << " accepted a repeat";
    }
  }
  EXPECT_GT(loaded, 0u);  // some mutants (a changed timestamp) do load

  // Status and phase words swapped for another word, of the right kind or
  // not; an unknown one is always rejected.
  const char* words[] = {"open", "ok", "closed", "aborted", "root", "bogus"};
  std::size_t swapped = 0;
  for (int m = 0; m < 200; ++m) {
    std::vector<std::string> mutant = lines;
    std::string& line = mutant[rng.uniform_int(mutant.size())];
    const std::string key =
        rng.bernoulli(0.5) ? "\"status\": \"" : "\"phase\": \"";
    const auto at = line.find(key);
    if (at == std::string::npos) continue;
    const std::size_t from = at + key.size();
    const std::string word = words[rng.uniform_int(6)];
    line.replace(from, line.find('"', from) - from, word);
    const std::string what = "word mutation " + std::to_string(m) + ": " + line;
    const bool ok = loads_consistently(joined(mutant, mutant.size()), what);
    EXPECT_FALSE(ok && word == "bogus") << what;
    ++swapped;
  }
  EXPECT_GT(swapped, 0u);
}

// --- the innermost-span sweep against a brute-force owner ------------------

// The span covering instant x within [lo, hi) that began last, higher id on
// ties; nullptr when none does.
const SpanRec* brute_owner(const std::vector<const SpanRec*>& spans,
                           std::int64_t x, std::int64_t lo, std::int64_t hi) {
  const SpanRec* best = nullptr;
  for (const SpanRec* s : spans) {
    if (std::max(s->begin_ps, lo) > x || std::min(s->end_ps, hi) <= x)
      continue;
    if (best == nullptr || s->begin_ps > best->begin_ps ||
        (s->begin_ps == best->begin_ps && s->id > best->id))
      best = s;
  }
  return best;
}

// Two closed traces within [0, 63) ps: nested spans, equal begins,
// zero-width spans and spans reaching outside their root, on lanes 0 and 1.
SpanFile random_spans(des::Rng& rng) {
  SpanFile f;
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng.uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  const auto add = [&f](std::uint64_t trace, std::uint64_t parent,
                        des::SpanPhase phase, std::int64_t b, std::int64_t e) {
    SpanRec s;
    s.id = f.spans.size() + 1;
    s.trace = trace;
    s.parent = parent;
    s.phase = phase;
    s.status = SpanStatus::kOk;
    s.begin_ps = b;
    s.end_ps = e;
    f.spans.push_back(s);
    return &f.spans.back();
  };
  for (std::uint64_t t = 1; t <= 2; ++t) {
    const std::int64_t rb = draw(5, 15);
    TraceRec tr;
    tr.id = t;
    tr.root = add(t, 0, des::SpanPhase::kRoot, rb, rb + draw(10, 25))->id;
    tr.status = TraceStatus::kClosed;
    f.traces.push_back(tr);
  }
  const des::SpanPhase phases[] = {des::SpanPhase::kSerialize,
                                   des::SpanPhase::kPropagate,
                                   des::SpanPhase::kCompute};
  const char* names[] = {"a", "b", "c"};
  const std::uint64_t n = 2 + rng.uniform_int(14);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t trace = 1 + rng.uniform_int(2);
    std::int64_t b = draw(0, 50);
    std::int64_t e = b + draw(0, 12);
    if (rng.bernoulli(0.4)) {  // nest in an earlier span
      const SpanRec& p = f.spans[rng.uniform_int(f.spans.size())];
      b = draw(p.begin_ps, p.end_ps);
      e = draw(b, p.end_ps);
    }
    if (rng.bernoulli(0.15)) e = b;  // zero width
    SpanRec* s = add(trace, f.traces[trace - 1].root,
                     phases[rng.uniform_int(3)], b, e);
    s->name = names[rng.uniform_int(3)];
    s->lane = static_cast<std::int64_t>(rng.uniform_int(3)) - 1;  // -1: none
  }
  return f;
}

TEST(SpanAnalysisTest, SweepsAgreeWithBruteForceOwner) {
  des::Rng rng{0x7377656570ULL};
  for (int round = 0; round < 300; ++round) {
    const SpanFile f = random_spans(rng);
    std::map<std::string, std::int64_t> phase_ps;
    for (const TraceRec& tr : f.traces) {
      std::vector<const SpanRec*> spans;
      for (const SpanRec& s : f.spans)
        if (s.trace == tr.id) spans.push_back(&s);
      const SpanRec& root = f.spans[tr.root - 1];
      const auto segs = sweep_trace(f, tr.id);
      ASSERT_FALSE(segs.empty()) << round;
      EXPECT_EQ(segs.front().begin_ps, root.begin_ps) << round;
      EXPECT_EQ(segs.back().end_ps, root.end_ps) << round;
      for (std::size_t i = 0; i < segs.size(); ++i) {
        if (i > 0) {
          EXPECT_EQ(segs[i].begin_ps, segs[i - 1].end_ps) << round;
          EXPECT_NE(segs[i].span, segs[i - 1].span) << round;  // merged
        }
        for (std::int64_t x = segs[i].begin_ps; x < segs[i].end_ps; ++x)
          EXPECT_EQ(segs[i].span,
                    brute_owner(spans, x, root.begin_ps, root.end_ps))
              << "round " << round << " trace " << tr.id << " at " << x;
      }
      for (std::int64_t x = root.begin_ps; x < root.end_ps; ++x)
        ++phase_ps[des::span_phase_name(
            brute_owner(spans, x, root.begin_ps, root.end_ps)->phase)];
    }
    EXPECT_EQ(budget(f).phase_ps, phase_ps) << round;

    std::map<std::pair<std::int64_t, std::string>, std::int64_t> state_ps;
    for (std::int64_t lane = 0; lane < 2; ++lane) {
      std::vector<const SpanRec*> on_lane;
      for (const SpanRec& s : f.spans)
        if (s.lane == lane) on_lane.push_back(&s);
      for (std::int64_t x = 0; x < 80; ++x)
        if (const SpanRec* s = brute_owner(on_lane, x, 0, 80))
          ++state_ps[{lane, s->name}];
    }
    EXPECT_EQ(lane_stats(f).state_ps, state_ps) << round;
  }
}

// --- WAN lifecycle edge cases -----------------------------------------------

// Two hosts joined by one ATM switch — the same WAN shape the transport
// and fault tests use; the egress link toward b is the fault target.
struct WanFixture {
  des::Scheduler sched;
  net::Host a{sched, "fe_a", 1};
  net::Host b{sched, "fe_b", 2};
  net::AtmSwitch sw{sched, "sw"};
  net::AtmNic nic_a{sched, a, "a.atm",
                    net::Link::Config{units::BitRate::mbps(622.0),
                                      des::SimTime::microseconds(250),
                                      units::Bytes{16u << 20},
                                      des::SimTime::zero()}};
  net::AtmNic nic_b{sched, b, "b.atm",
                    net::Link::Config{units::BitRate::mbps(622.0),
                                      des::SimTime::microseconds(250),
                                      units::Bytes{16u << 20},
                                      des::SimTime::zero()}};
  net::VcAllocator vcs;
  int pa = -1, pb = -1;

  WanFixture() {
    auto cfg = net::Link::Config{units::BitRate::mbps(622.0),
                                 des::SimTime::microseconds(250),
                                 units::Bytes{16u << 20},
                                 des::SimTime::zero()};
    pa = sw.add_port(cfg);
    pb = sw.add_port(cfg);
    sw.connect_ingress(pa, nic_a.uplink());
    sw.connect_ingress(pb, nic_b.uplink());
    sw.connect_egress(pa, nic_a.ingress());
    sw.connect_egress(pb, nic_b.ingress());
    vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
    a.add_route(2, &nic_a, 2);
    b.add_route(1, &nic_b, 1);
  }

  net::Link& wan_toward_b() { return sw.egress_link(pb); }
};

meta::PathConfig striped(int streams) {
  meta::PathConfig cfg;
  cfg.streams = streams;
  cfg.chunk_bytes = units::Bytes{64u << 10};
  return cfg;
}

TEST(SpanLifecycleTest, StallResetAbortsStrandedChunkSpansWithoutLeaks) {
  WanFixture f;
  SpanTracer tracer;
  f.sched.set_span_hook(&tracer);

  net::FaultPlan plan(f.sched);
  // Cut the WAN long enough that the chunk watchdog tears every stream
  // down and re-stripes the stranded chunks onto fresh connections.
  plan.link_down(f.wan_toward_b(), ms(20), ms(500));

  meta::PathConfig cfg = striped(4);
  cfg.chunk_timeout = ms(250);
  meta::PathTransport path(f.sched, f.a, f.b, 7000, cfg);
  int delivered = 0;
  path.send(0, units::Bytes{8u << 20}, [&] { ++delivered; });
  f.sched.run();

  EXPECT_EQ(delivered, 1);
  ASSERT_GE(path.stats(0).stream_resets, 1u);

  // The reset aborted the stranded chunks' spans and opened fresh ones;
  // at drain nothing may remain open and the message's trace is closed.
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(tracer.open_traces(), 0u);
  std::size_t aborted = 0;
  for (const SpanRec& s : tracer.file().spans)
    if (s.status == SpanStatus::kAborted) ++aborted;
  EXPECT_GE(aborted, 1u);
  ASSERT_EQ(tracer.file().traces.size(), 1u);
  EXPECT_EQ(tracer.file().traces[0].status, TraceStatus::kClosed);
}

// A two-frame message over NIC -> switch -> WAN -> switch -> NIC.  Each
// hop's spans carry the picoseconds a link with one transmit-complete and
// one propagation event per frame stamped: 10 kB take 1 ms on an 80 Mbit/s
// line and 100 us on the 800 Mbit/s WAN, the lines propagate for 1 us and
// 2 ms, and each fabric hop takes 5 us.  Frame 2 waits behind frame 1 at
// the sender, and reaches the far egress exactly when frame 1 leaves its
// wire there.
TEST(SpanTimelineTest, TwoFramesOverTwoSwitchesKeepTheirStamps) {
  des::Scheduler sched;
  SpanTracer tracer;
  sched.set_span_hook(&tracer);
  const units::BitRate line = units::BitRate::mbps(80.0);
  const units::BitRate wan = units::BitRate::mbps(800.0);
  const units::Bytes buffer{1u << 20};
  net::Link up(sched, "a.up",
               net::Link::Config{line, SimTime::microseconds(1), buffer,
                                 SimTime::zero()});
  net::AtmSwitch sw_a(sched, "sw_a");
  net::AtmSwitch sw_b(sched, "sw_b");
  const int a_in = sw_a.add_port(net::Link::Config{
      line, SimTime::microseconds(1), buffer, SimTime::zero()});
  const int a_wan =
      sw_a.add_port(net::Link::Config{wan, ms(2), buffer, SimTime::zero()});
  const int b_wan =
      sw_b.add_port(net::Link::Config{wan, ms(2), buffer, SimTime::zero()});
  const int b_out = sw_b.add_port(net::Link::Config{
      line, SimTime::microseconds(1), buffer, SimTime::zero()});
  sw_a.connect_ingress(a_in, up);
  sw_b.connect_ingress(b_wan, sw_a.egress_link(a_wan));
  sw_a.add_route(a_in, 40, a_wan, 41);
  sw_b.add_route(b_wan, 41, b_out, 42);

  const des::TraceContext msg = sched.mint("test.msg");
  std::vector<std::int64_t> arrived;
  sw_b.connect_egress(b_out, [&](net::Frame) {
    arrived.push_back(sched.now().ps());
    if (arrived.size() == 2) sched.close_trace(msg);
  });
  for (int i = 0; i < 2; ++i) {
    net::Frame f;
    f.wire_bytes = 10'000;
    f.vc = 40;
    f.pkt.ctx = msg;
    ASSERT_TRUE(up.submit(std::move(f)));
  }
  sched.run();

  constexpr std::int64_t kUs = 1'000'000;  // ps
  EXPECT_EQ(arrived, (std::vector<std::int64_t>{4112 * kUs, 5112 * kUs}));
  using Stamps = std::vector<std::pair<std::int64_t, std::int64_t>>;
  const auto stamps = [&](const std::string& layer, const std::string& name,
                          des::SpanPhase phase) {
    Stamps out;
    for (const SpanRec& s : tracer.file().spans)
      if (s.layer == layer && s.name == name && s.phase == phase)
        out.emplace_back(s.begin_ps, s.end_ps);
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto us = [&](std::int64_t b, std::int64_t e) {
    return std::make_pair(b * kUs, e * kUs);
  };
  using P = des::SpanPhase;
  EXPECT_EQ(stamps("link", "a.up", P::kQueueWait),
            (Stamps{us(0, 0), us(0, 1000)}));
  EXPECT_EQ(stamps("link", "a.up", P::kSerialize),
            (Stamps{us(0, 1000), us(1000, 2000)}));
  EXPECT_EQ(stamps("link", "a.up", P::kPropagate),
            (Stamps{us(1000, 1001), us(2000, 2001)}));
  EXPECT_EQ(stamps("atm", "sw_a", P::kPropagate),
            (Stamps{us(1001, 1006), us(2001, 2006)}));
  EXPECT_EQ(stamps("link", "sw_a.port1", P::kSerialize),
            (Stamps{us(1006, 1106), us(2006, 2106)}));
  EXPECT_EQ(stamps("link", "sw_a.port1", P::kPropagate),
            (Stamps{us(1106, 3106), us(2106, 4106)}));
  EXPECT_EQ(stamps("atm", "sw_b", P::kPropagate),
            (Stamps{us(3106, 3111), us(4106, 4111)}));
  EXPECT_EQ(stamps("link", "sw_b.port1", P::kQueueWait),
            (Stamps{us(3111, 3111), us(4111, 4111)}));
  EXPECT_EQ(stamps("link", "sw_b.port1", P::kSerialize),
            (Stamps{us(3111, 4111), us(4111, 5111)}));
  EXPECT_EQ(stamps("link", "sw_b.port1", P::kPropagate),
            (Stamps{us(4111, 4112), us(5111, 5112)}));

  // At 1000 us frame 1's propagation on a.up and frame 2's serialization
  // begin together, and at 4111 us the same on sw_b.port1: the budget
  // gives both microseconds to serialize, because each link opens the
  // retired frame's propagate span before the next frame's serialize span.
  const PhaseBudget b = budget(tracer.file());
  ASSERT_EQ(b.closed_traces, 1u);
  EXPECT_EQ(b.total_ps, 5112 * kUs);
  EXPECT_EQ(b.phase_ps.at("queue-wait"), 1000 * kUs);
  EXPECT_EQ(b.phase_ps.at("serialize"),
            (1 + 100 + 100 + 995 + 1 + 999) * kUs);
  EXPECT_EQ(b.phase_ps.at("propagate"),
            (5 + 894 + 1 + 5 + 1000 + 5 + 5 + 1) * kUs);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

// Registers the fixture's two hosts as linked machines 0 and 1 of `mc`.
void add_linked_machines(WanFixture& f, meta::Metacomputer& mc) {
  meta::MachineSpec sa;
  sa.name = "T3E";
  sa.max_pes = 8;
  sa.frontend = &f.a;
  meta::MachineSpec sb;
  sb.name = "SP2";
  sb.max_pes = 8;
  sb.frontend = &f.b;
  mc.link_machines(mc.add_machine(sa), mc.add_machine(sb),
                   net::TcpConfig{}, 7000);
}

TEST(SpanLifecycleTest, CollectiveMintsOneTraceOverItsWanLegs) {
  WanFixture f;
  SpanTracer tracer;
  f.sched.set_span_hook(&tracer);
  meta::Metacomputer mc(f.sched);
  add_linked_machines(f, mc);

  // Entered outside any traced event, so the broadcast is a workload
  // origin: it mints comm.broadcast, and its one WAN leg nests under it.
  meta::Communicator comm(mc, {{0, 0}, {0, 1}, {1, 0}});
  int got = 0;
  for (int r = 0; r < comm.size(); ++r)
    comm.broadcast(r, /*root=*/0, 64u << 10, [&](const std::any&) { ++got; });
  f.sched.run();

  EXPECT_EQ(got, 3);
  ASSERT_EQ(tracer.file().traces.size(), 1u);
  const TraceRec& trace = tracer.file().traces[0];
  EXPECT_EQ(trace.origin, "comm.broadcast");
  EXPECT_EQ(trace.status, TraceStatus::kClosed);
  std::size_t path_spans = 0;
  for (const SpanRec& s : tracer.file().spans)
    if (s.trace == trace.id && s.layer == "meta") ++path_spans;
  EXPECT_GE(path_spans, 1u);  // PathTransport's message span
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(tracer.open_traces(), 0u);
}

TEST(SpanLifecycleTest, DrainLeakCensusIsCleanUnderMonitor) {
  WanFixture f;
  SpanTracer tracer;
  f.sched.set_span_hook(&tracer);
  check::Monitor mon(f.sched);
  check::attach_span_tracer(mon, tracer);

  meta::PathTransport path(f.sched, f.a, f.b, 7000, striped(4));
  int delivered = 0;
  path.send(0, units::Bytes{4u << 20}, [&] { ++delivered; });
  f.sched.run();
  mon.finish();

  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(mon.clean()) << mon.report();
}

TEST(SpanLifecycleTest, AttachingTracerIsPerturbationFree) {
  // The same workload with and without the tracer attached must drain at
  // the identical picosecond and move the identical bytes — observing
  // may never change the simulation.
  auto run = [](SpanTracer* tracer) {
    WanFixture f;
    if (tracer != nullptr) f.sched.set_span_hook(tracer);
    meta::PathTransport path(f.sched, f.a, f.b, 7000, striped(4));
    int delivered = 0;
    path.send(0, units::Bytes{2u << 20}, [&] { ++delivered; });
    f.sched.run();
    EXPECT_EQ(delivered, 1);
    return f.sched.now();
  };
  const SimTime bare = run(nullptr);
  SpanTracer tracer;
  const SimTime traced = run(&tracer);
  EXPECT_EQ(bare.ps(), traced.ps());
  EXPECT_GT(tracer.file().spans.size(), 0u);  // it did observe the run
}

// An event under trace A hands host `via` a packet of trace B through
// `handoff`.  The host's work belongs to B; the event carries on under A.
// Returns the event's context after the handoff, and A.
std::pair<des::TraceContext, des::TraceContext> run_handoff(
    WanFixture& f, SpanTracer& tracer,
    const std::function<void(const net::IpPacket&)>& handoff) {
  net::IpPacket pkt;
  pkt.dst = f.b.id();
  pkt.total_bytes = 1000;
  pkt.ctx = tracer.mint("test.b", f.sched.now());
  tracer.adopt({});
  des::TraceContext a, after;
  f.sched.schedule_after(ms(1), [&] {
    a = tracer.mint("test.a", f.sched.now());
    handoff(pkt);
    after = tracer.current();
  });
  f.sched.run();
  return {after, a};
}

TEST(SpanLifecycleTest, HostReceiveRestoresTheCallersTrace) {
  WanFixture f;
  SpanTracer tracer;
  f.sched.set_span_hook(&tracer);
  const auto [after, a] = run_handoff(
      f, tracer, [&](const net::IpPacket& p) { f.b.receive_from_nic(p); });
  EXPECT_EQ(after.trace_id, a.trace_id);
  EXPECT_EQ(after.span_id, a.span_id);
}

TEST(SpanLifecycleTest, HostSendWithLayerOffRestoresTheCallersTrace) {
  WanFixture f;
  SpanTracer tracer;
  tracer.enable_layer("host", false);
  f.sched.set_span_hook(&tracer);
  const auto [after, a] = run_handoff(
      f, tracer, [&](const net::IpPacket& p) { f.a.send_datagram(p); });
  EXPECT_EQ(after.trace_id, a.trace_id);
  EXPECT_EQ(after.span_id, a.span_id);
}

// Sends a traced 4 MB message and runs 5 ms of it, so the message's
// transfer span is still open on `conn`.
void run_traced_message_partway(WanFixture& f, SpanTracer& tracer,
                                net::TcpConnection& conn) {
  tracer.mint("test.origin", f.sched.now());  // current until adopt({})
  conn.send(0, units::Bytes{4u << 20});
  tracer.adopt({});
  f.sched.run(ms(5));
}

TEST(SpanLifecycleTest, TracerDestroyedFirstDetachesFromScheduler) {
  WanFixture f;
  auto conn = std::make_unique<net::TcpConnection>(f.a, f.b, 100, 200);
  {
    SpanTracer tracer;
    f.sched.set_span_hook(&tracer);
    EXPECT_EQ(tracer.installed_on(), &f.sched);
    run_traced_message_partway(f, tracer, *conn);
    ASSERT_GE(tracer.open_spans(), 2u);  // the root and the message
  }
  // The dead tracer uninstalled itself, so tearing the connection down
  // (which retires open spans through the scheduler's hook) calls no hook;
  // a dangling one would be a call into a destroyed object.
  EXPECT_EQ(f.sched.span_hook(), nullptr);
  conn.reset();
  f.sched.run();  // the rest of the run drains untraced
}

TEST(SpanLifecycleTest, SchedulerDestroyedFirstForgetsTracer) {
  SpanTracer tracer;
  {
    WanFixture f;
    f.sched.set_span_hook(&tracer);
    net::TcpConnection conn(f.a, f.b, 100, 200);
    run_traced_message_partway(f, tracer, conn);
  }  // conn retires its span through the live tracer, then the scheduler dies
  std::size_t aborted = 0;
  for (const SpanRec& s : tracer.file().spans)
    if (s.status == SpanStatus::kAborted) ++aborted;
  EXPECT_GE(aborted, 1u);
  EXPECT_EQ(tracer.installed_on(), nullptr);

  // The tracer outlives its scheduler and can serve another, one at a time.
  des::Scheduler s1;
  des::Scheduler s2;
  s1.set_span_hook(&tracer);
  s2.set_span_hook(&tracer);
  EXPECT_EQ(s1.span_hook(), nullptr);
  EXPECT_EQ(s2.span_hook(), &tracer);
  EXPECT_EQ(tracer.installed_on(), &s2);
}

// The GTW-San check hook follows the same lifetime rules.  It counts its
// calls.  Hook and scheduler live on the heap so that a dangling link is a
// heap-use-after-free under ASan.
struct CountingCheckHook final : des::SchedulerCheckHook {
  void on_schedule(SimTime, SimTime, std::uint64_t) override { ++calls; }
  void on_fire(SimTime, std::uint64_t) override { ++calls; }
  void on_cancel(std::uint64_t, CancelOutcome) override { ++calls; }
  std::uint64_t calls = 0;
};

TEST(CheckHookLifecycleTest, CheckHookDestroyedFirstDetachesFromScheduler) {
  des::Scheduler sched;
  auto hook = std::make_unique<CountingCheckHook>();
  sched.set_check_hook(hook.get());
  EXPECT_EQ(hook->installed_on(), &sched);
  EXPECT_EQ(sched.check_hook(), hook.get());
  des::EventHandle timer = sched.schedule_after(ms(2), [] {});
  sched.schedule_after(ms(1), [] {});
  sched.run(ms(1));
  hook.reset();
  // The dead hook uninstalled itself, so the rest of the run (a cancel, a
  // schedule, a fire) and the scheduler's destructor reach no hook.
  EXPECT_EQ(sched.check_hook(), nullptr);
  timer.cancel();
  sched.schedule_after(ms(1), [] {});
  EXPECT_EQ(sched.run(), 1u);
}

TEST(CheckHookLifecycleTest, SchedulerDestroyedFirstForgetsCheckHook) {
  CountingCheckHook hook;
  auto sched = std::make_unique<des::Scheduler>();
  sched->set_check_hook(&hook);
  sched->schedule_after(ms(1), [] {});
  sched->run();
  sched.reset();
  // The hook's own destructor will find no scheduler to detach from.
  EXPECT_EQ(hook.installed_on(), nullptr);
  EXPECT_EQ(hook.calls, 2u);  // one schedule, one fire

  // The hook outlives its scheduler and can serve another, one at a time.
  des::Scheduler s1;
  des::Scheduler s2;
  s1.set_check_hook(&hook);
  s2.set_check_hook(&hook);
  EXPECT_EQ(s1.check_hook(), nullptr);
  EXPECT_EQ(s2.check_hook(), &hook);
  EXPECT_EQ(hook.installed_on(), &s2);
}

// The path observer follows the same rule: either side may die first.
struct CountingPathObserver final : meta::PathCheckObserver {
  void on_chunk(int, std::uint64_t, std::uint32_t, bool) override { ++calls; }
  void on_message(int, std::uint64_t, std::uint64_t) override { ++calls; }
  std::uint64_t calls = 0;
};

// One two-chunk message over a striped path.
void striped_message(meta::PathTransport& path, des::Scheduler& sched) {
  int delivered = 0;
  path.send(0, units::Bytes{128u << 10}, [&] { ++delivered; });
  sched.run();
  EXPECT_EQ(delivered, 1);
}

TEST(CheckHookLifecycleTest, PathObserverDestroyedFirstDetachesFromPath) {
  WanFixture f;
  meta::PathTransport path(f.sched, f.a, f.b, 7000, striped(2));
  auto obs = std::make_unique<CountingPathObserver>();
  path.set_check_observer(obs.get());
  EXPECT_EQ(obs->installed_on(), &path);
  EXPECT_EQ(path.check_observer(), obs.get());
  obs.reset();
  // The chunks and message below and the path's destructor reach no
  // observer.
  EXPECT_EQ(path.check_observer(), nullptr);
  striped_message(path, f.sched);
}

TEST(CheckHookLifecycleTest, PathDestroyedFirstForgetsObserver) {
  WanFixture f;
  CountingPathObserver obs;
  auto path =
      std::make_unique<meta::PathTransport>(f.sched, f.a, f.b, 7000, striped(2));
  path->set_check_observer(&obs);
  path.reset();
  EXPECT_EQ(obs.installed_on(), nullptr);

  meta::PathTransport p1(f.sched, f.a, f.b, 7100, striped(2));
  meta::PathTransport p2(f.sched, f.a, f.b, 7200, striped(2));
  p1.set_check_observer(&obs);
  p2.set_check_observer(&obs);
  EXPECT_EQ(p1.check_observer(), nullptr);
  EXPECT_EQ(p2.check_observer(), &obs);
  EXPECT_EQ(obs.installed_on(), &p2);
  striped_message(p2, f.sched);
  EXPECT_EQ(obs.calls, 3u);  // two chunks, one message
}

}  // namespace
}  // namespace gtw::obs
