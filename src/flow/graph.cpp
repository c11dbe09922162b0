#include "flow/graph.hpp"

namespace gtw::flow {

des::Scheduler& StageContext::scheduler() const { return graph->sched_; }

des::SimTime StageContext::now() const { return graph->sched_.now(); }

des::TraceContext StageContext::trace_send(int to_stage,
                                           units::Bytes bytes) const {
  return graph->sched_.send_message(trace, "flow", stage, to_stage,
                                    bytes.count());
}

void StageContext::trace_recv(int at_stage, des::TraceContext send) const {
  graph->sched_.recv_message(send, "flow", at_stage);
}

StageGraph::StageGraph(des::Scheduler& sched, GraphConfig cfg)
    : sched_(sched), cfg_(cfg) {}

StageGraph::~StageGraph() {
  for (auto& [id, is] : live_) {
    sched_.abort_span(is.wait_span);
    sched_.abort_span(is.body_span);
    if (is.owns_trace) sched_.abort_trace(is.ctx, "teardown");
  }
}

int StageGraph::add_stage(StageConfig cfg) {
  const int idx = static_cast<int>(stages_.size());
  metrics_.add_stage(cfg.name, cfg.concurrency);
  stages_.push_back(Stage{std::move(cfg), {}, 0, false});
  return idx;
}

void StageGraph::push(int index, std::any payload) {
  ++metrics_.pushed;
  const std::uint64_t id = next_id_++;
  ItemState st;
  st.item.id = id;
  st.item.index = index;
  st.item.payload = std::move(payload);
  // Workload origin: an item pushed outside any traced event starts a
  // fresh trace; one pushed from inside (e.g. a stage body fanning out)
  // joins the trace of its cause.
  st.ctx = sched_.current_trace();
  st.owns_trace = sched_.tracing() && !st.ctx.valid();
  if (st.owns_trace) st.ctx = sched_.mint("flow.push");
  st.wait_span = sched_.begin_span(st.ctx, des::SpanPhase::kQueueWait, "flow",
                                   "admission");
  live_.emplace(id, std::move(st));
  admission_.push_back(id);
  if (admission_.size() > metrics_.admission_peak)
    metrics_.admission_peak = admission_.size();
  admit_pending();
}

void StageGraph::set_degraded(bool on) {
  if (on == degraded_) return;
  degraded_ = on;
  const des::SimTime now = sched_.now();
  if (on) {
    ++metrics_.degraded_spans;
    degraded_since_ = now;
    awaiting_recovery_ = false;
  } else {
    metrics_.degraded_time += now - degraded_since_;
    recovery_started_ = now;
    awaiting_recovery_ = true;
    // The backlog that piled up during the outage is re-examined under the
    // normal policy immediately.
    admit_pending();
  }
}

void StageGraph::supersede_waiting() {
  // A newer item supersedes everything still waiting (the RT-client asks
  // for "the next image" and gets the newest one).
  while (admission_.size() > 1) {
    const std::uint64_t stale = admission_.front();
    admission_.pop_front();
    ++metrics_.admission_dropped;
    if (degraded_) ++metrics_.degraded_dropped;
    auto it = live_.find(stale);
    sched_.abort_span(it->second.wait_span);
    if (it->second.owns_trace)
      sched_.abort_trace(it->second.ctx, "superseded");
    live_.erase(it);
  }
}

void StageGraph::admit_pending() {
  if (admitting_ || stages_.empty()) return;
  admitting_ = true;
  // Degraded mode forces newest-wins semantics whatever the configured
  // policy, and eagerly — even while admission itself is blocked, work
  // must not pile up behind a dead network.
  if (degraded_) supersede_waiting();
  while (!admission_.empty()) {
    if (cfg_.max_in_flight > 0 && in_flight_ >= cfg_.max_in_flight) break;
    if (cfg_.admission == QueuePolicy::kDropStale || degraded_)
      supersede_waiting();
    const std::uint64_t id = admission_.front();
    admission_.pop_front();
    ++in_flight_;
    ++metrics_.admitted;
    enqueue(0, id);
  }
  admitting_ = false;
}

void StageGraph::enqueue(int s, std::uint64_t id) {
  Stage& st = stages_[static_cast<std::size_t>(s)];
  // An item arriving from the previous stage starts waiting here; one
  // just admitted keeps its open admission span until it starts.
  ItemState& is = live_.find(id)->second;
  if (is.ctx.valid() && is.wait_span == 0)
    is.wait_span = sched_.begin_span(is.ctx, des::SpanPhase::kQueueWait,
                                     "flow", st.cfg.name.c_str());
  st.queue.push_back(id);
  note_queue(s);
  pump(s);
}

void StageGraph::pump(int s) {
  Stage& st = stages_[static_cast<std::size_t>(s)];
  if (st.pumping) return;
  st.pumping = true;
  while (!st.queue.empty() &&
         (st.cfg.concurrency == 0 || st.running < st.cfg.concurrency)) {
    const std::uint64_t id = st.queue.front();
    st.queue.pop_front();
    note_queue(s);
    start(s, id);
  }
  st.pumping = false;
}

void StageGraph::start(int s, std::uint64_t id) {
  Stage& st = stages_[static_cast<std::size_t>(s)];
  ++st.running;
  ItemState& is = live_.find(id)->second;
  is.stage = s;
  is.in_body = true;
  is.started = sched_.now();
  StageMetrics& m = metrics_.stage(s);
  ++m.items_in;
  if (!m.started) {
    m.started = true;
    m.first_start = is.started;
  }
  if (is.ctx.valid()) {
    sched_.end_span(is.wait_span);
    is.wait_span = 0;
    is.body_span = sched_.begin_span(is.ctx, des::SpanPhase::kCompute, "flow",
                                     st.cfg.name.c_str());
    sched_.set_lane(is.body_span, des::Lane{s});
  }
  // Run the body under its own span so whatever it launches (a WAN
  // transfer, a CPU job) nests beneath this stage in the span tree.
  const des::TraceContext body = des::under(is.ctx, is.body_span);
  des::TraceScope scope(sched_, body);
  st.cfg.body(StageContext{this, s, body}, is.item,
              [this, s, id]() { finish(s, id); });
  // `is` may be gone here: a synchronous Done can complete the item.
}

void StageGraph::finish(int s, std::uint64_t id) {
  auto it = live_.find(id);
  if (it == live_.end() || it->second.stage != s || !it->second.in_body)
    return;  // stale or duplicate Done
  ItemState& is = it->second;
  is.in_body = false;
  const des::SimTime now = sched_.now();
  Stage& st = stages_[static_cast<std::size_t>(s)];
  StageMetrics& m = metrics_.stage(s);
  ++m.items_out;
  m.busy += now - is.started;
  m.last_finish = now;
  sched_.end_span(is.body_span);
  is.body_span = 0;
  // Release the slot and refill this stage before handing the item on, so
  // an upstream waiter dispatches ahead of the downstream continuation —
  // the ordering the original FIRE transfer callback used.
  --st.running;
  pump(s);
  advance(s, id);
}

void StageGraph::advance(int s, std::uint64_t id) {
  const int next = s + 1;
  if (next < stage_count())
    enqueue(next, id);
  else
    leave_graph(id);
}

void StageGraph::leave_graph(std::uint64_t id) {
  auto it = live_.find(id);
  ++metrics_.completed;
  if (awaiting_recovery_) {
    // First completion after the outage cleared: the recovery time the
    // paper's operators would have watched for on the RT-client.
    awaiting_recovery_ = false;
    ++metrics_.recoveries;
    metrics_.last_recovery_time = sched_.now() - recovery_started_;
  }
  {
    des::TraceScope scope(sched_, it->second.ctx);
    if (complete_) complete_(it->second.item);
  }
  if (it->second.owns_trace) sched_.close_trace(it->second.ctx);
  live_.erase(it);
  --in_flight_;
  admit_pending();
}

void StageGraph::note_queue(int s) {
  StageMetrics& m = metrics_.stage(s);
  m.queue_depth = stages_[static_cast<std::size_t>(s)].queue.size();
  if (m.queue_depth > m.queue_peak) m.queue_peak = m.queue_depth;
}

}  // namespace gtw::flow
