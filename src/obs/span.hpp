// obs::SpanTracer — the runtime half of the causal tracing layer
// (DESIGN.md section 13).  Implements des::SpanHook, the interface the DES
// engine and every latency-bearing component call through null-checked
// virtual dispatch (hook inversion, same shape as GTW-San: interface at
// the DAG bottom in des/, implementation here at the top).
//
// The tracer records, per logical workload unit (a pipeline item, a WAN
// message), a tree of typed spans — queue-wait, serialize, propagate,
// host-cpu, retransmit-stall, reassembly-wait, retry-backoff, compute —
// each stamped with exact integer-picosecond DES begin/end times.  Two
// propagation mechanisms feed it:
//
//   scheduler-mediated: on_event_scheduled() snapshots the running event's
//   TraceContext against the new event's sequence number, and
//   on_event_fire()/on_event_done() bracket the dispatch, so continuation
//   chains inherit their cause's context with zero per-component code;
//
//   payload-carried: packets, frames, TCP messages and transport chunks
//   carry a TraceContext, and components bracket asynchronous handoffs
//   with adopt().
//
// Perturbation-free by construction: the tracer never touches the
// scheduler, never reads wall-clock time, and allocates only its own
// bookkeeping, so attaching it cannot change the event sequence and every
// BENCH_*.json artifact stays byte-identical.  Span volume is bounded with
// enable_layer(): begin_span() for a disabled layer returns span id 0, and
// ending/aborting span 0 is a no-op everywhere.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "des/span_hook.hpp"
#include "des/time.hpp"

namespace gtw::obs {

class SpanTracer : public des::SpanHook {
 public:
  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Span-volume filter: begin_span() for a disabled layer returns 0.
  // Roots (mint) are always recorded.  Layers default to enabled.
  void enable_layer(const std::string& layer, bool on);

  // --- des::SpanHook --------------------------------------------------------
  void on_event_scheduled(std::uint64_t seq) override;
  void on_event_fire(std::uint64_t seq) override;
  void on_event_done() override;
  void on_event_cancel(std::uint64_t seq) override;
  des::TraceContext mint(const char* origin, des::SimTime now) override;
  des::TraceContext current() const override;
  des::TraceContext adopt(des::TraceContext ctx) override;
  std::uint64_t begin_span(des::TraceContext parent, des::SpanPhase phase,
                           const char* layer, const char* name,
                           des::SimTime now) override;
  void end_span(std::uint64_t span_id, des::SimTime now) override;
  void abort_span(std::uint64_t span_id, des::SimTime now) override;
  void close_trace(des::TraceContext ctx, des::SimTime now) override;
  void abort_trace(des::TraceContext ctx, const char* reason,
                   des::SimTime now) override;
  void set_lane(std::uint64_t span_id, const des::Lane& lane) override;

  // --- recorded data --------------------------------------------------------
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t trace = 0;
    std::uint64_t parent = 0;  // parent span id; 0 for trace roots
    des::SpanPhase phase = des::SpanPhase::kRoot;
    std::string layer;
    std::string name;
    des::SimTime begin;
    des::SimTime end;
    bool open = true;
    bool aborted = false;
    des::Lane lane{-1};  // set by set_lane; lane.lane < 0: on no lane
  };
  struct Trace {
    std::uint64_t id = 0;
    std::uint64_t root = 0;  // root span id
    std::string origin;
    // "open" until closed; then "closed" or "aborted".
    std::string status = "open";
    std::string abort_reason;
  };

  // Spans in id order (id == index + 1); traces in id order.
  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::uint64_t, Trace>& traces() const { return traces_; }

  // Leak census: spans begun but neither ended nor aborted, and traces
  // still open.  Both must be zero once a run drains and every component
  // has retired its in-flight work (tests/span_test.cpp; a checked run
  // registers the census as a drain check via check::attach_span_tracer).
  std::size_t open_spans() const { return open_spans_; }
  std::size_t open_traces() const { return open_traces_; }

  // Line-oriented spans artifact (OBS_<label>.spans.json): a header line,
  // one trace line per trace, one span line per span — all timestamps
  // exact integer picoseconds; a lane span adds "lane", a send also "to"
  // and "bytes" — and a {"spans_total": N} footer that lets readers detect
  // truncation.
  void write_json(std::ostream& os, const std::string& label) const;

 private:
  Span* find_open(std::uint64_t span_id);

  std::vector<Span> spans_;
  std::map<std::uint64_t, Trace> traces_;
  std::map<std::string, bool> layer_enabled_;
  // Scheduler-mediated propagation: contexts snapshotted per pending event.
  std::map<std::uint64_t, des::TraceContext> pending_;
  des::TraceContext current_;
  std::uint64_t next_trace_ = 0;
  std::size_t open_spans_ = 0;
  std::size_t open_traces_ = 0;
};

}  // namespace gtw::obs
