// Property tests for the dataflow engine over randomized linear graphs:
//
//  - pipelined (free admission, every stage concurrency 1): the steady-state
//    completion period equals the *maximum* stage time — the bottleneck law
//    the A2 ablation demonstrates on the fMRI pipeline;
//  - sequential (max_in_flight == 1): the period equals the *sum* of the
//    stage times — the paper's 2.7 s request/reply loop;
//  - conservation: with FIFO queues nothing is dropped and every stage sees
//    every item exactly once.
//
// Durations are whole milliseconds so every assertion is exact in integer
// picoseconds, and the PRNG is the simulator's own deterministic xoshiro.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "flow/graph.hpp"
#include "flow/stage.hpp"

namespace gtw {
namespace {

using des::SimTime;

struct RandomPipeline {
  std::vector<SimTime> durations;
  SimTime max_stage;
  SimTime sum_stages;
};

RandomPipeline make_durations(des::Rng& rng, int n_stages) {
  RandomPipeline p;
  p.max_stage = SimTime::zero();
  p.sum_stages = SimTime::zero();
  for (int s = 0; s < n_stages; ++s) {
    const SimTime d =
        SimTime::milliseconds(static_cast<std::int64_t>(rng.uniform_int(900)) + 100);
    p.durations.push_back(d);
    p.max_stage = std::max(p.max_stage, d);
    p.sum_stages = p.sum_stages + d;
  }
  return p;
}

std::vector<SimTime> run_pipeline(const RandomPipeline& p, int items,
                                  flow::GraphConfig cfg) {
  des::Scheduler sched;
  flow::StageGraph g(sched, cfg);
  for (std::size_t s = 0; s < p.durations.size(); ++s) {
    const SimTime d = p.durations[s];
    // Not "s" + std::to_string(s): GCC 12 at -O3 flags that with a false
    // -Wrestrict.
    g.add_stage(
        flow::compute_stage(std::string(1, 's').append(std::to_string(s)),
                            [d](const flow::Item&) { return d; }, 1));
  }
  std::vector<SimTime> completions;
  g.on_complete([&](const flow::Item&) { completions.push_back(sched.now()); });
  for (int i = 0; i < items; ++i) g.push(i);
  sched.run();
  EXPECT_EQ(g.metrics().completed, static_cast<std::uint64_t>(items));
  for (int s = 0; s < g.stage_count(); ++s) {
    EXPECT_EQ(g.metrics().stage(s).items_in,
              static_cast<std::uint64_t>(items));
    EXPECT_EQ(g.metrics().stage(s).items_out,
              static_cast<std::uint64_t>(items));
    EXPECT_EQ(g.metrics().stage(s).dropped, 0u);
  }
  return completions;
}

TEST(FlowPropertyTest, PipelinedSustainedPeriodIsMaxStageTime) {
  des::Rng rng(2026);
  for (int trial = 0; trial < 25; ++trial) {
    const int n_stages = 2 + static_cast<int>(rng.uniform_int(4));
    const RandomPipeline p = make_durations(rng, n_stages);
    // Enough items that the bottleneck stage saturates.
    const int items = 4 * n_stages + 4;
    const auto done = run_pipeline(p, items, flow::GraphConfig{});
    ASSERT_EQ(done.size(), static_cast<std::size_t>(items));
    // Steady state: the inter-completion interval is exactly the slowest
    // stage's service time (integer-picosecond equality, no tolerance).
    const SimTime period = done.back() - done[done.size() - 2];
    EXPECT_EQ(period, p.max_stage)
        << "trial " << trial << ": " << n_stages << " stages";
    // And the first item's latency is the sum of all stage times.
    EXPECT_EQ(done.front(), p.sum_stages);
  }
}

TEST(FlowPropertyTest, SequentialPeriodIsSumOfStageTimes) {
  des::Rng rng(4711);
  for (int trial = 0; trial < 25; ++trial) {
    const int n_stages = 2 + static_cast<int>(rng.uniform_int(4));
    const RandomPipeline p = make_durations(rng, n_stages);
    const int items = 6;
    const auto done =
        run_pipeline(p, items, flow::GraphConfig{/*max_in_flight=*/1,
                                                 flow::QueuePolicy::kFifo});
    ASSERT_EQ(done.size(), static_cast<std::size_t>(items));
    for (std::size_t i = 0; i < done.size(); ++i) {
      EXPECT_EQ(done[i], p.sum_stages * static_cast<std::int64_t>(i + 1))
          << "trial " << trial << " item " << i;
    }
  }
}

TEST(FlowPropertyTest, PipelinedNeverSlowerThanSequentialNeverFasterThanBottleneck) {
  des::Rng rng(1337);
  for (int trial = 0; trial < 10; ++trial) {
    const int n_stages = 2 + static_cast<int>(rng.uniform_int(4));
    const RandomPipeline p = make_durations(rng, n_stages);
    const int items = 8;
    const auto pip = run_pipeline(p, items, flow::GraphConfig{});
    const auto seq =
        run_pipeline(p, items, flow::GraphConfig{1, flow::QueuePolicy::kFifo});
    ASSERT_EQ(pip.size(), seq.size());
    for (std::size_t i = 0; i < pip.size(); ++i) {
      EXPECT_LE(pip[i], seq[i]);  // overlap can only help
      // Makespan lower bound: the bottleneck must serve every item.
      EXPECT_GE(pip[i], p.max_stage * static_cast<std::int64_t>(i + 1));
    }
  }
}

TEST(FlowPropertyTest, PeriodicFeedAtBottleneckRateKeepsQueuesBounded) {
  des::Rng rng(9001);
  for (int trial = 0; trial < 10; ++trial) {
    const int n_stages = 2 + static_cast<int>(rng.uniform_int(3));
    const RandomPipeline p = make_durations(rng, n_stages);
    des::Scheduler sched;
    flow::StageGraph g(sched);
    for (std::size_t s = 0; s < p.durations.size(); ++s) {
      const SimTime d = p.durations[s];
      g.add_stage(
          flow::compute_stage(std::string(1, 's').append(std::to_string(s)),
                              [d](const flow::Item&) { return d; }, 1));
    }
    // Feed exactly at the bottleneck rate: the graph keeps up, so no stage
    // ever holds more than one waiting item.
    flow::PeriodicSource src(g, {p.max_stage, 12, /*immediate_first=*/true});
    src.start();
    sched.run();
    EXPECT_EQ(g.metrics().completed, 12u);
    for (int s = 0; s < g.stage_count(); ++s)
      EXPECT_LE(g.metrics().stage(s).queue_peak, 1u) << "stage " << s;
  }
}

}  // namespace
}  // namespace gtw
