// Unit tests for the staged-dataflow engine: FIFO stage queues, concurrency
// limits, admission control and superseding, degraded mode, metrics and
// the stage spans on VAMPIR lanes.
#include <gtest/gtest.h>

#include <any>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "flow/graph.hpp"
#include "flow/stage.hpp"
#include "obs/span.hpp"

namespace gtw {
namespace {

using des::Scheduler;
using des::SimTime;

SimTime sec(double s) { return SimTime::seconds(s); }

struct Completion {
  int index;
  SimTime at;
};

// Run a graph to completion, recording (index, time) for every item that
// leaves the last stage.
std::vector<Completion> collect(Scheduler& sched, flow::StageGraph& g) {
  std::vector<Completion> out;
  g.on_complete([&](const flow::Item& it) {
    out.push_back({it.index, sched.now()});
  });
  sched.run();
  return out;
}

TEST(FlowGraphTest, FifoTwoStagePreservesOrder) {
  Scheduler sched;
  flow::StageGraph g(sched);
  g.add_stage(flow::compute_stage("a", [](const flow::Item&) {
    return sec(1.0);
  }));
  g.add_stage(flow::compute_stage("b", [](const flow::Item&) {
    return sec(0.5);
  }));
  for (int i = 0; i < 4; ++i) g.push(i);
  const auto done = collect(sched, g);
  ASSERT_EQ(done.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(done[static_cast<size_t>(i)].index, i);
  // Stage a is the 1 s bottleneck: completions at 1.5, 2.5, 3.5, 4.5.
  EXPECT_EQ(done[0].at, sec(1.5));
  EXPECT_EQ(done[3].at, sec(4.5));
  EXPECT_EQ(g.metrics().pushed, 4u);
  EXPECT_EQ(g.metrics().admitted, 4u);
  EXPECT_EQ(g.metrics().completed, 4u);
  EXPECT_EQ(g.in_flight(), 0);
}

TEST(FlowGraphTest, ConcurrencyLimitSerializes) {
  Scheduler sched;
  flow::StageGraph g(sched);
  g.add_stage(flow::compute_stage("only", [](const flow::Item&) {
    return sec(1.0);
  }, 1));
  for (int i = 0; i < 3; ++i) g.push(i);
  const auto done = collect(sched, g);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].at, sec(1.0));
  EXPECT_EQ(done[1].at, sec(2.0));
  EXPECT_EQ(done[2].at, sec(3.0));
}

TEST(FlowGraphTest, UnlimitedConcurrencyOverlaps) {
  Scheduler sched;
  flow::StageGraph g(sched);
  g.add_stage(flow::delay_stage("lat", sec(1.0)));  // concurrency 0
  for (int i = 0; i < 3; ++i) g.push(i);
  const auto done = collect(sched, g);
  ASSERT_EQ(done.size(), 3u);
  for (const auto& c : done) EXPECT_EQ(c.at, sec(1.0));
}

TEST(FlowGraphTest, SequentialAdmissionDropStaleSupersedes) {
  Scheduler sched;
  flow::StageGraph g(sched, {/*max_in_flight=*/1,
                             /*admission=*/flow::QueuePolicy::kDropStale});
  g.add_stage(flow::compute_stage("busy", [](const flow::Item&) {
    return sec(10.0);
  }));
  for (int i = 0; i < 5; ++i) g.push(i);
  // Pushes queue up behind the busy graph; superseding happens when the
  // in-flight slot frees and only the newest is admitted.
  EXPECT_EQ(g.waiting_admission(), 4u);
  const auto done = collect(sched, g);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].index, 0);
  EXPECT_EQ(done[1].index, 4);  // 1, 2 and 3 were superseded
  EXPECT_EQ(g.metrics().admission_dropped, 3u);
  EXPECT_EQ(g.metrics().completed, 2u);
}

TEST(FlowGraphTest, MetricsIntegrateBusyTimeAndQueues) {
  Scheduler sched;
  flow::StageGraph g(sched);
  g.add_stage(flow::compute_stage("work", [](const flow::Item&) {
    return sec(2.0);
  }, 1));
  for (int i = 0; i < 3; ++i) g.push(i);
  sched.run();
  const flow::StageMetrics& m = g.metrics().stage(0);
  EXPECT_EQ(m.items_in, 3u);
  EXPECT_EQ(m.items_out, 3u);
  EXPECT_EQ(m.busy, sec(6.0));
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(m.queue_peak, 2u);  // two items waited while the first ran
  // Active span 0..6 s, all of it busy.
  EXPECT_DOUBLE_EQ(m.occupancy(), 1.0);
  EXPECT_DOUBLE_EQ(m.throughput_per_s(), 0.5);
  EXPECT_NE(g.metrics().report().find("work"), std::string::npos);
}

TEST(FlowGraphTest, PayloadTravelsWithItem) {
  Scheduler sched;
  flow::StageGraph g(sched);
  int seen = 0;
  g.add_stage(flow::inline_stage("peek", [&](flow::StageContext,
                                             flow::Item& it) {
    seen = std::any_cast<int>(it.payload);
    it.payload = seen * 2;
  }));
  int out = 0;
  g.on_complete([&](const flow::Item& it) {
    out = std::any_cast<int>(it.payload);
  });
  g.push(7, std::any{21});
  sched.run();
  EXPECT_EQ(seen, 21);
  EXPECT_EQ(out, 42);
}

// Closed body spans of `stage` on lane `lane`.
int lane_states(const obs::SpanTracer& t, std::int64_t lane,
                const std::string& stage) {
  int n = 0;
  for (const obs::SpanRec& s : t.file().spans)
    if (s.lane == lane && s.name == stage &&
        s.status != obs::SpanStatus::kOpen)
      ++n;
  return n;
}

TEST(FlowGraphTest, TracerEmitsEnterLeavePerStage) {
  Scheduler sched;
  obs::SpanTracer tracer;
  sched.set_span_hook(&tracer);
  flow::StageGraph g(sched);
  g.add_stage(flow::compute_stage("alpha", [](const flow::Item&) {
    return sec(1.0);
  }));
  g.add_stage(flow::compute_stage("beta", [](const flow::Item&) {
    return sec(0.5);
  }));
  for (int i = 0; i < 3; ++i) g.push(i);
  sched.run();
  // Each stage's body spans sit on its lane, named after the stage.
  EXPECT_EQ(lane_states(tracer, 0, "alpha"), 3);
  EXPECT_EQ(lane_states(tracer, 1, "beta"), 3);
  EXPECT_EQ(lane_states(tracer, 1, "alpha"), 0);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(FlowGraphTest, TraceAttachMidstreamOnlyRecordsLaterItems) {
  Scheduler sched;
  flow::StageGraph g(sched);
  g.add_stage(flow::compute_stage("s", [](const flow::Item&) {
    return sec(1.0);
  }));
  g.push(0);
  sched.run();
  obs::SpanTracer tracer;
  sched.set_span_hook(&tracer);
  g.push(1);
  sched.run();
  EXPECT_EQ(lane_states(tracer, 0, "s"), 1);
}

TEST(PeriodicSourceTest, ScheduledFirstMatchesCbrCadence) {
  Scheduler sched;
  flow::StageGraph g(sched);
  g.add_stage(flow::inline_stage("sink", [](flow::StageContext,
                                            flow::Item&) {}));
  std::vector<SimTime> at;
  g.on_complete([&](const flow::Item&) { at.push_back(sched.now()); });
  flow::PeriodicSource src(g, {sec(1.0), 3, /*immediate_first=*/false});
  src.start();
  sched.run();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], sec(0.0));  // first tick scheduled at +0
  EXPECT_EQ(at[1], sec(1.0));
  EXPECT_EQ(at[2], sec(2.0));
  EXPECT_EQ(src.emitted(), 3);
}

TEST(PeriodicSourceTest, ImmediateFirstEmitsSynchronouslyAndSignalsLast) {
  Scheduler sched;
  flow::StageGraph g(sched);
  g.add_stage(flow::inline_stage("sink", [](flow::StageContext,
                                            flow::Item&) {}));
  bool last = false;
  flow::PeriodicSource src(g, {sec(0.5), 2, /*immediate_first=*/true},
                           nullptr, [&] { last = true; });
  src.start();
  EXPECT_EQ(src.emitted(), 1);  // first item pushed inside start()
  sched.run();
  EXPECT_EQ(src.emitted(), 2);
  EXPECT_TRUE(last);
}

TEST(FlowGraphTest, DegradedModeForcesNewestWinsAndTimesRecovery) {
  Scheduler sched;
  // Sequential request/reply with plain FIFO admission: normally every
  // pushed item eventually runs.
  flow::StageGraph g(sched, {/*max_in_flight=*/1,
                             /*admission=*/flow::QueuePolicy::kFifo});
  g.add_stage(flow::compute_stage("work", [](const flow::Item&) {
    return sec(1.0);
  }));
  std::vector<int> done;
  g.on_complete([&](const flow::Item& it) { done.push_back(it.index); });

  // Items every 0.5 s; the graph is degraded during [2 s, 6.25 s).  The
  // window ends off the completion grid (integer seconds) so the recovery
  // interval to the next completion is strictly positive.
  for (int i = 0; i < 12; ++i) {
    sched.schedule_at(sec(0.5 * i), [&g, i]() { g.push(i); });
  }
  sched.schedule_at(sec(2.0), [&g]() { g.set_degraded(true); });
  sched.schedule_at(sec(6.25), [&g]() { g.set_degraded(false); });
  sched.run();

  const auto& m = g.metrics();
  EXPECT_EQ(m.degraded_spans, 1u);
  EXPECT_EQ(m.recoveries, 1u);
  EXPECT_EQ(m.degraded_time, sec(4.25));
  // While degraded, the backlog behind the busy stage is superseded
  // newest-wins instead of queueing.
  EXPECT_GT(m.degraded_dropped, 0u);
  EXPECT_EQ(m.degraded_dropped, m.admission_dropped);
  // Recovery clock: set_degraded(false) -> next completion.
  EXPECT_GT(m.last_recovery_time, des::SimTime::zero());
  EXPECT_LE(m.last_recovery_time, sec(1.0));
  // Everything pushed was either completed or accounted as dropped.
  EXPECT_EQ(m.pushed, done.size() + m.admission_dropped);
  EXPECT_FALSE(g.degraded());
  EXPECT_EQ(g.in_flight(), 0);
}

TEST(PeriodicSourceTest, StopCancelsFurtherTicks) {
  Scheduler sched;
  flow::StageGraph g(sched);
  g.add_stage(flow::inline_stage("sink", [](flow::StageContext,
                                            flow::Item&) {}));
  flow::PeriodicSource src(g, {sec(1.0), 10, /*immediate_first=*/false});
  src.start();
  sched.schedule_after(sec(2.5), [&] { src.stop(); });
  sched.run();
  EXPECT_EQ(src.emitted(), 3);  // ticks at 0, 1, 2 only
}

}  // namespace
}  // namespace gtw
