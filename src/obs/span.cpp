#include "obs/span.hpp"

namespace gtw::obs {

void SpanTracer::enable_layer(const std::string& layer, bool on) {
  layer_enabled_[layer] = on;
}

void SpanTracer::on_event_scheduled(std::uint64_t seq) {
  if (current_.valid()) pending_[seq] = current_;
}

void SpanTracer::on_event_fire(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it != pending_.end()) {
    current_ = it->second;
    pending_.erase(it);
  } else {
    current_ = des::TraceContext{};
  }
}

void SpanTracer::on_event_done() { current_ = des::TraceContext{}; }

void SpanTracer::on_event_cancel(std::uint64_t seq) { pending_.erase(seq); }

des::TraceContext SpanTracer::mint(const char* origin, des::SimTime now) {
  const std::uint64_t trace_id = file_.traces.size() + 1;
  const std::uint64_t root =
      append_span(trace_id, 0, des::SpanPhase::kRoot, "trace", origin, now);
  TraceRec& t = file_.traces.emplace_back();
  t.id = trace_id;
  t.root = root;
  t.origin = origin;
  ++open_traces_;

  // The minting event now runs under the new trace, so everything it
  // schedules inherits the context.
  current_ = des::TraceContext{trace_id, root};
  return current_;
}

des::TraceContext SpanTracer::current() const { return current_; }

des::TraceContext SpanTracer::adopt(des::TraceContext ctx) {
  const des::TraceContext prev = current_;
  current_ = ctx;
  return prev;
}

std::uint64_t SpanTracer::begin_span(des::TraceContext parent,
                                     des::SpanPhase phase, const char* layer,
                                     const char* name, des::SimTime now) {
  if (!parent.valid()) return 0;
  if (auto it = layer_enabled_.find(layer);
      it != layer_enabled_.end() && !it->second)
    return 0;
  return append_span(parent.trace_id, parent.span_id, phase, layer, name, now);
}

std::uint64_t SpanTracer::append_span(std::uint64_t trace,
                                      std::uint64_t parent,
                                      des::SpanPhase phase, const char* layer,
                                      const char* name, des::SimTime now) {
  SpanRec& s = file_.spans.emplace_back();
  s.id = file_.spans.size();
  s.trace = trace;
  s.parent = parent;
  s.phase = phase;
  s.layer = layer;
  s.name = name;
  s.begin_ps = s.end_ps = now.ps();
  ++open_spans_;
  return s.id;
}

SpanRec* SpanTracer::span(std::uint64_t span_id) {
  if (span_id == 0 || span_id > file_.spans.size()) return nullptr;
  return &file_.spans[span_id - 1];
}

void SpanTracer::finish(SpanRec& s, des::SimTime now, SpanStatus status) {
  if (s.status != SpanStatus::kOpen) return;
  s.end_ps = now.ps();
  s.status = status;
  --open_spans_;
}

void SpanTracer::end_span(std::uint64_t span_id, des::SimTime now) {
  if (SpanRec* s = span(span_id)) finish(*s, now, SpanStatus::kOk);
}

void SpanTracer::abort_span(std::uint64_t span_id, des::SimTime now) {
  if (SpanRec* s = span(span_id)) finish(*s, now, SpanStatus::kAborted);
}

void SpanTracer::set_lane(std::uint64_t span_id, const des::Lane& lane) {
  SpanRec* s = span(span_id);
  if (s == nullptr) return;
  // Keep what the artifact can carry: a peer and a size only on a send,
  // and a send only on a lane.
  s->lane = lane.lane >= 0 ? lane.lane : -1;
  s->to = s->lane >= 0 && lane.to >= 0 ? lane.to : -1;
  s->bytes = s->to >= 0 ? lane.bytes : 0;
}

TraceRec* SpanTracer::trace_if_open(des::TraceContext ctx) {
  if (ctx.trace_id == 0 || ctx.trace_id > file_.traces.size()) return nullptr;
  TraceRec& t = file_.traces[ctx.trace_id - 1];
  return t.status == TraceStatus::kOpen ? &t : nullptr;
}

void SpanTracer::close_trace(des::TraceContext ctx, des::SimTime now) {
  TraceRec* t = trace_if_open(ctx);
  if (t == nullptr) return;
  t->status = TraceStatus::kClosed;
  --open_traces_;
  end_span(t->root, now);
}

void SpanTracer::abort_trace(des::TraceContext ctx, const char* reason,
                             des::SimTime now) {
  TraceRec* t = trace_if_open(ctx);
  if (t == nullptr) return;
  t->status = TraceStatus::kAborted;
  t->reason = reason;
  --open_traces_;
  // Cascade: whatever the trace's components still hold open dies with it
  // (a dropped message's late copies will try to end these spans later;
  // those calls land on closed spans and no-op).
  for (SpanRec& s : file_.spans)
    if (s.trace == ctx.trace_id) finish(s, now, SpanStatus::kAborted);
}

void SpanTracer::write_json(std::ostream& os, const std::string& label) const {
  write_spans(os, file_, label);
}

}  // namespace gtw::obs
