// Staged-dataflow engine over des::Scheduler.
//
// A StageGraph is a linear pipeline of Stage nodes.  Each stage has a body
// (continuation-passing: it receives the item and a Done callback, since the
// DES cannot block), a concurrency limit, and an unbounded in-order input
// queue.
//
// Graph admission generalizes fire::PipelineMode: max_in_flight == 1 with a
// kDropStale admission queue (when a slot frees, admit only the newest
// waiting item and discard the older ones: FIRE's "display the current
// brain state" semantics) is the paper's sequential request/reply loop,
// max_in_flight == 0 is the fully pipelined mode where only per-stage
// concurrency limits throttle the flow.
//
// Every stage feeds a MetricsRegistry and, while a span hook is installed
// on the scheduler, puts each item's stage body span on the stage's VAMPIR
// lane; transfer stages add send/recv messages via StageContext.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "flow/metrics.hpp"
#include "units/units.hpp"

namespace gtw::flow {

class StageGraph;

// One unit of work travelling through the pipeline.  The reference handed
// to a stage body stays valid until the body calls Done.
struct Item {
  std::uint64_t id = 0;  // graph-assigned, increases in push order
  int index = 0;         // caller-assigned (scan number, frame number, ...)
  std::any payload;
};

using Done = std::function<void()>;

// Handle a stage body uses to reach the scheduler and the trace stream.
struct StageContext {
  StageGraph* graph = nullptr;
  int stage = 0;
  des::TraceContext trace;  // the item's, under its body span

  des::Scheduler& scheduler() const;
  des::SimTime now() const;
  // Record a message from this stage's lane to `to_stage`'s, and return
  // the context its receipt is recorded under: trace_recv at `at_stage`.
  // No-ops while the item is untraced.
  des::TraceContext trace_send(int to_stage, units::Bytes bytes) const;
  void trace_recv(int at_stage, des::TraceContext send) const;
};

using StageFn = std::function<void(StageContext, Item&, Done)>;

enum class QueuePolicy { kFifo, kDropStale };

struct StageConfig {
  std::string name;
  int concurrency = 1;   // simultaneous bodies; 0 = unlimited
  StageFn body;
};

struct GraphConfig {
  int max_in_flight = 0;  // 0 = unlimited (pipelined); 1 = request/reply
  QueuePolicy admission = QueuePolicy::kFifo;
};

class StageGraph {
 public:
  explicit StageGraph(des::Scheduler& sched, GraphConfig cfg = {});
  // Items still in the graph at teardown retire their spans as aborted so
  // the tracer's leak census stays clean (obs, DESIGN.md section 13).
  ~StageGraph();

  // Append a stage; returns its index (== its VAMPIR lane).
  int add_stage(StageConfig cfg);

  // Called when an item leaves the last stage.
  void on_complete(std::function<void(const Item&)> cb) {
    complete_ = std::move(cb);
  }

  // Offer an item to the graph.  Admission control may queue or (under
  // kDropStale) later supersede it.
  void push(int index, std::any payload = {});

  // Graceful degradation for outages (wired to a net::FaultPlan observer):
  // while degraded, admission behaves as kDropStale regardless of the
  // configured policy — work piling up behind a dead network is superseded
  // by fresher items instead of queueing, the paper's "display the current
  // brain state" semantics under failure.  Clearing it starts the
  // recovery-time clock, stopped by the next completion.
  void set_degraded(bool on);
  bool degraded() const { return degraded_; }

  des::Scheduler& scheduler() { return sched_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  int stage_count() const { return static_cast<int>(stages_.size()); }
  int in_flight() const { return in_flight_; }
  std::size_t waiting_admission() const { return admission_.size(); }

 private:
  friend struct StageContext;

  struct ItemState {
    Item item;
    int stage = -1;        // current stage once started
    bool in_body = false;  // body running, Done not yet called
    des::SimTime started;
    // Causal trace of this item (obs): minted at push() when the graph is
    // the workload origin, closed (or aborted, for drops) when the item
    // leaves.  Exactly one of wait_span/body_span is open at any moment
    // the item is inside the graph.
    des::TraceContext ctx;
    bool owns_trace = false;
    std::uint64_t wait_span = 0;  // queue-wait: admission or stage queue
    std::uint64_t body_span = 0;  // compute: stage body running
  };
  struct Stage {
    StageConfig cfg;
    std::deque<std::uint64_t> queue;  // waiting item ids, arrival order
    int running = 0;
    bool pumping = false;  // re-entrancy guard for pump()
  };

  void admit_pending();
  void supersede_waiting();  // newest-wins trim of the admission queue
  void enqueue(int s, std::uint64_t id);
  void pump(int s);
  void start(int s, std::uint64_t id);
  void finish(int s, std::uint64_t id);
  void advance(int s, std::uint64_t id);  // hand off past stage s
  void leave_graph(std::uint64_t id);
  void note_queue(int s);

  des::Scheduler& sched_;
  GraphConfig cfg_;
  std::vector<Stage> stages_;
  // Node-stable storage: stage bodies hold Item& across scheduler delays.
  std::map<std::uint64_t, ItemState> live_;
  std::deque<std::uint64_t> admission_;
  std::uint64_t next_id_ = 1;
  int in_flight_ = 0;
  bool admitting_ = false;
  bool degraded_ = false;
  bool awaiting_recovery_ = false;
  des::SimTime degraded_since_;
  des::SimTime recovery_started_;
  MetricsRegistry metrics_;
  std::function<void(const Item&)> complete_;
};

}  // namespace gtw::flow
