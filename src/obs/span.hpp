// obs::SpanTracer — the runtime half of the causal tracing layer
// (DESIGN.md section 13).  Implements des::SpanHook, the interface the DES
// scheduler calls through null-checked virtual dispatch, for itself and for
// every latency-bearing component that traces through it (hook inversion,
// same shape as GTW-San: interface at the DAG bottom in des/,
// implementation here at the top).
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
//   with a des::TraceScope, which adopt()s the payload's context and
//   restores the mover's.
//
// It records straight into a SpanFile (span_analysis.hpp), which every
// view reads: in process as file(), or from the artifact write_json() prints.
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

#include "des/span_hook.hpp"
#include "des/time.hpp"
#include "obs/span_analysis.hpp"

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
  // Every trace and span so far, in id order.  An open span ends where it
  // begins until it is ended or aborted.
  const SpanFile& file() const { return file_; }

  // Leak census: spans begun but neither ended nor aborted, and traces
  // still open.  Both must be zero once a run drains and every component
  // has retired its in-flight work (tests/span_test.cpp; a checked run
  // registers the census as a drain check via check::attach_span_tracer).
  std::size_t open_spans() const { return open_spans_; }
  std::size_t open_traces() const { return open_traces_; }

  // The spans artifact of file(), headed `label` (write_spans).
  void write_json(std::ostream& os, const std::string& label) const;

 private:
  std::uint64_t append_span(std::uint64_t trace, std::uint64_t parent,
                            des::SpanPhase phase, const char* layer,
                            const char* name, des::SimTime now);
  SpanRec* span(std::uint64_t span_id);
  TraceRec* trace_if_open(des::TraceContext ctx);
  void finish(SpanRec& s, des::SimTime now, SpanStatus status);

  SpanFile file_;
  std::map<std::string, bool> layer_enabled_;
  // Scheduler-mediated propagation: contexts snapshotted per pending event.
  std::map<std::uint64_t, des::TraceContext> pending_;
  des::TraceContext current_;
  std::size_t open_spans_ = 0;
  std::size_t open_traces_ = 0;
};

}  // namespace gtw::obs
