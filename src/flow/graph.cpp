#include "flow/graph.hpp"

namespace gtw::flow {

des::Scheduler& StageContext::scheduler() const { return graph->sched_; }

des::SimTime StageContext::now() const { return graph->sched_.now(); }

des::TraceContext StageContext::trace_send(int to_stage,
                                           units::Bytes bytes) const {
  des::SpanHook* h = graph->sched_.span_hook();
  if (h == nullptr) return {};
  return h->send_message(trace, "flow", stage, to_stage, bytes.count(),
                         graph->sched_.now());
}

void StageContext::trace_recv(int at_stage, des::TraceContext send) const {
  if (des::SpanHook* h = graph->sched_.span_hook(); h != nullptr)
    h->recv_message(send, "flow", at_stage, graph->sched_.now());
}

StageGraph::StageGraph(des::Scheduler& sched, GraphConfig cfg)
    : sched_(sched), cfg_(cfg) {}

StageGraph::~StageGraph() {
  des::SpanHook* h = sched_.span_hook();
  if (h == nullptr) return;
  for (auto& [id, is] : live_) {
    h->abort_span(is.wait_span, sched_.now());
    h->abort_span(is.body_span, sched_.now());
    if (is.owns_trace) h->abort_trace(is.ctx, "teardown", sched_.now());
  }
}

int StageGraph::add_stage(StageConfig cfg) {
  const int idx = static_cast<int>(stages_.size());
  metrics_.add_stage(cfg.name, cfg.concurrency);
  stages_.push_back(Stage{std::move(cfg), {}, {}, 0, false});
  return idx;
}

const std::string& StageGraph::stage_name(int s) const {
  return stages_[static_cast<std::size_t>(s)].cfg.name;
}

void StageGraph::push(int index, std::any payload) {
  ++metrics_.pushed;
  const std::uint64_t id = next_id_++;
  ItemState st;
  st.item.id = id;
  st.item.index = index;
  st.item.payload = std::move(payload);
  if (des::SpanHook* h = sched_.span_hook(); h != nullptr) {
    // Workload origin: an item pushed outside any traced event starts a
    // fresh trace; one pushed from inside (e.g. a stage body fanning out)
    // joins the trace of its cause.
    st.ctx = h->current();
    if (!st.ctx.valid()) {
      st.ctx = h->mint("flow.push", sched_.now());
      st.owns_trace = true;
    }
    st.wait_span = h->begin_span(st.ctx, des::SpanPhase::kQueueWait, "flow",
                                 "admission", sched_.now());
  }
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

bool StageGraph::accepts(int s) const {
  const Stage& st = stages_[static_cast<std::size_t>(s)];
  if (st.cfg.policy != QueuePolicy::kBlock || st.cfg.capacity == 0)
    return true;
  return st.queue.size() < st.cfg.capacity;
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
    if (des::SpanHook* h = sched_.span_hook(); h != nullptr) {
      h->abort_span(it->second.wait_span, sched_.now());
      if (it->second.owns_trace)
        h->abort_trace(it->second.ctx, "superseded", sched_.now());
    }
    if (drop_) drop_(it->second.item, -1);
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
    if (!accepts(0)) break;
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
  if (st.cfg.policy == QueuePolicy::kDropNewest && st.cfg.capacity > 0 &&
      st.queue.size() >= st.cfg.capacity) {
    drop_queued(s, id);
    return;
  }
  if (des::SpanHook* h = sched_.span_hook(); h != nullptr) {
    // An item arriving from the previous stage starts waiting here; one
    // released from a kBlock hold keeps its already-open wait span.
    ItemState& is = live_.find(id)->second;
    if (is.ctx.valid() && is.wait_span == 0)
      is.wait_span = h->begin_span(is.ctx, des::SpanPhase::kQueueWait, "flow",
                                   st.cfg.name.c_str(), sched_.now());
  }
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
    if (st.cfg.policy == QueuePolicy::kDropStale) {
      while (st.queue.size() > 1) {
        const std::uint64_t stale = st.queue.front();
        st.queue.pop_front();
        drop_queued(s, stale);
      }
    }
    const std::uint64_t id = st.queue.front();
    st.queue.pop_front();
    note_queue(s);
    drain_blocked(s);
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
  des::SpanHook* h = sched_.span_hook();
  const bool traced = h != nullptr && is.ctx.valid();
  des::TraceContext prev;
  if (traced) {
    h->end_span(is.wait_span, is.started);
    is.wait_span = 0;
    is.body_span = h->begin_span(is.ctx, des::SpanPhase::kCompute,
                                 "flow",
                                 st.cfg.name.c_str(), is.started);
    h->set_lane(is.body_span, des::Lane{s});
    // Run the body under its own span so whatever it launches (a WAN
    // transfer, a CPU job) nests beneath this stage in the span tree.
    prev = h->adopt(des::under(is.ctx, is.body_span));
  }
  st.cfg.body(StageContext{this, s, des::under(is.ctx, is.body_span)},
              is.item, [this, s, id]() { finish(s, id); });
  // `is` may be gone here: a synchronous Done can complete the item.
  if (traced) h->adopt(prev);
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
  des::SpanHook* h = sched_.span_hook();
  if (h != nullptr) {
    h->end_span(is.body_span, now);
    is.body_span = 0;
  }

  const int next = s + 1;
  if (next < stage_count()) {
    Stage& nx = stages_[static_cast<std::size_t>(next)];
    if (nx.cfg.policy == QueuePolicy::kBlock && nx.cfg.capacity > 0 &&
        nx.queue.size() >= nx.cfg.capacity) {
      // Backpressure: keep holding this stage's slot until there is room.
      if (h != nullptr && is.ctx.valid())
        is.wait_span = h->begin_span(is.ctx, des::SpanPhase::kQueueWait,
                                     "flow", st.cfg.name.c_str(), now);
      st.blocked.push_back(id);
      return;
    }
  }
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

void StageGraph::drain_blocked(int s) {
  Stage& st = stages_[static_cast<std::size_t>(s)];
  if (st.cfg.policy != QueuePolicy::kBlock || st.cfg.capacity == 0) return;
  if (s == 0) {
    admit_pending();
    return;
  }
  Stage& up = stages_[static_cast<std::size_t>(s - 1)];
  while (!up.blocked.empty() && st.queue.size() < st.cfg.capacity) {
    const std::uint64_t id = up.blocked.front();
    up.blocked.pop_front();
    --up.running;
    pump(s - 1);
    enqueue(s, id);
  }
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
  des::SpanHook* h = sched_.span_hook();
  des::TraceContext prev;
  if (h != nullptr) prev = h->adopt(it->second.ctx);
  if (complete_) complete_(it->second.item);
  if (h != nullptr) {
    h->adopt(prev);
    if (it->second.owns_trace)
      h->close_trace(it->second.ctx, sched_.now());
  }
  live_.erase(it);
  --in_flight_;
  admit_pending();
}

void StageGraph::drop_queued(int s, std::uint64_t id) {
  ++metrics_.stage(s).dropped;
  auto it = live_.find(id);
  if (des::SpanHook* h = sched_.span_hook(); h != nullptr) {
    h->abort_span(it->second.wait_span, sched_.now());
    h->abort_span(it->second.body_span, sched_.now());
    if (it->second.owns_trace)
      h->abort_trace(it->second.ctx, "dropped", sched_.now());
  }
  if (drop_) drop_(it->second.item, s);
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
