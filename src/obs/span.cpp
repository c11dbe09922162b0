#include "obs/span.hpp"

#include <ostream>

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
  const std::uint64_t trace_id = ++next_trace_;
  Span root;
  root.id = spans_.size() + 1;
  root.trace = trace_id;
  root.parent = 0;
  root.phase = des::SpanPhase::kRoot;
  root.layer = "trace";
  root.name = origin;
  root.begin = now;
  spans_.push_back(std::move(root));
  ++open_spans_;

  Trace t;
  t.id = trace_id;
  t.root = spans_.back().id;
  t.origin = origin;
  traces_.emplace(trace_id, std::move(t));
  ++open_traces_;

  // The minting event now runs under the new trace, so everything it
  // schedules inherits the context.
  current_ = des::TraceContext{trace_id, spans_.back().id};
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
  Span s;
  s.id = spans_.size() + 1;
  s.trace = parent.trace_id;
  s.parent = parent.span_id;
  s.phase = phase;
  s.layer = layer;
  s.name = name;
  s.begin = now;
  spans_.push_back(std::move(s));
  ++open_spans_;
  return spans_.back().id;
}

SpanTracer::Span* SpanTracer::find_open(std::uint64_t span_id) {
  if (span_id == 0 || span_id > spans_.size()) return nullptr;
  Span& s = spans_[span_id - 1];
  return s.open ? &s : nullptr;
}

void SpanTracer::end_span(std::uint64_t span_id, des::SimTime now) {
  Span* s = find_open(span_id);
  if (s == nullptr) return;
  s->end = now;
  s->open = false;
  --open_spans_;
}

void SpanTracer::abort_span(std::uint64_t span_id, des::SimTime now) {
  Span* s = find_open(span_id);
  if (s == nullptr) return;
  s->end = now;
  s->open = false;
  s->aborted = true;
  --open_spans_;
}

void SpanTracer::set_lane(std::uint64_t span_id, const des::Lane& lane) {
  if (span_id == 0 || span_id > spans_.size()) return;
  spans_[span_id - 1].lane = lane;
}

void SpanTracer::close_trace(des::TraceContext ctx, des::SimTime now) {
  auto it = traces_.find(ctx.trace_id);
  if (it == traces_.end() || it->second.status != "open") return;
  it->second.status = "closed";
  --open_traces_;
  end_span(it->second.root, now);
}

void SpanTracer::abort_trace(des::TraceContext ctx, const char* reason,
                             des::SimTime now) {
  auto it = traces_.find(ctx.trace_id);
  if (it == traces_.end() || it->second.status != "open") return;
  it->second.status = "aborted";
  it->second.abort_reason = reason;
  --open_traces_;
  // Cascade: whatever the trace's components still hold open dies with it
  // (a dropped message's late copies will try to end these spans later;
  // those calls land on closed spans and no-op).
  for (Span& s : spans_) {
    if (s.trace != ctx.trace_id || !s.open) continue;
    s.end = now;
    s.open = false;
    s.aborted = true;
    --open_spans_;
  }
}

void SpanTracer::write_json(std::ostream& os, const std::string& label) const {
  os << "{\"gtw_spans\": 1, \"label\": \"" << label << "\"}\n";
  for (const auto& [id, t] : traces_) {
    os << "{\"trace\": " << id << ", \"root\": " << t.root << ", \"origin\": \""
       << t.origin << "\", \"status\": \"" << t.status << "\"";
    if (!t.abort_reason.empty())
      os << ", \"reason\": \"" << t.abort_reason << "\"";
    os << "}\n";
  }
  for (const Span& s : spans_) {
    os << "{\"span\": " << s.id << ", \"trace\": " << s.trace
       << ", \"parent\": " << s.parent << ", \"phase\": \""
       << des::span_phase_name(s.phase) << "\", \"layer\": \"" << s.layer
       << "\", \"name\": \"" << s.name << "\", \"begin_ps\": " << s.begin.ps()
       << ", \"end_ps\": " << (s.open ? s.begin : s.end).ps()
       << ", \"status\": \""
       << (s.open ? "open" : (s.aborted ? "aborted" : "ok")) << "\"";
    if (s.lane.lane >= 0) {
      os << ", \"lane\": " << s.lane.lane;
      if (s.lane.to >= 0)
        os << ", \"to\": " << s.lane.to << ", \"bytes\": " << s.lane.bytes;
    }
    os << "}\n";
  }
  os << "{\"spans_total\": " << spans_.size()
     << ", \"traces_total\": " << traces_.size()
     << ", \"open_spans\": " << open_spans_ << "}\n";
}

}  // namespace gtw::obs
