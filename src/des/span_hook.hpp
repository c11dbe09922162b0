// Causal span hook layer (DESIGN.md §13): the seam between the engine /
// component layers and the obs::SpanTracer in src/obs/.
//
// Same inversion as des/check_hook.hpp: the layering DAG forbids des, net,
// meta and flow from including obs, so the interface the tracer implements
// is declared here at the bottom of the DAG and src/obs/ provides the
// implementation.  Span call sites, like the check hook's, are plain
// null-checked virtual calls present in every build — tracing is a runtime
// choice (attach a tracer to the scheduler, run, detach), not a build
// flavour.  When no hook is installed the cost per site is one pointer
// load and branch; when one is installed, the hook only *observes*: it
// must never schedule, cancel, or otherwise steer the simulation, so all
// BENCH_*.json artifacts are byte-identical with and without tracing.
//
// Causality is carried two ways:
//  - through the scheduler: on_event_scheduled snapshots the hook's
//    current TraceContext against the event's seq; on_event_fire restores
//    it while the event's action runs.  Continuation chains (CPU cost
//    events, retransmit timers, stage pumps) therefore inherit context
//    with zero per-component code.
//  - through payloads: packets, frames, TCP messages and PathTransport
//    chunks carry a TraceContext member; a component that moves a payload
//    across an async boundary brackets the handoff with adopt() so the
//    downstream events are attributed to the payload's trace, not to
//    whatever event happened to perform the move.
#pragma once

#include <cstdint>

#include "des/time.hpp"

namespace gtw::des {

class Scheduler;

// Identity of one causal trace (a workload unit: a scan, a WAN message)
// and the currently innermost span within it.  trace_id 0 means "not
// traced": payloads default to that and every hook call site tolerates it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

// The same trace, but with `span` as the innermost span — the context a
// component adopts (or parents children on) after opening a span of its
// own, so the span tree nests layer by layer (flow -> meta -> tcp -> link)
// instead of flattening onto the root.  A filtered-out span (id 0, see
// begin_span) leaves the context unchanged.
inline TraceContext under(TraceContext ctx, std::uint64_t span) {
  return span == 0 ? ctx : TraceContext{ctx.trace_id, span};
}

// Typed phases a span can carry.  Leaf phases attribute wall-clock in the
// latency budget; container phases (kRoot, kTransfer) hold child spans and
// absorb only the time no child refines (gtw-trace --budget attributes each
// instant to the deepest active span on the causal chain).
enum class SpanPhase : std::uint8_t {
  kRoot = 0,         // whole-trace container, minted at the workload origin
  kQueueWait,        // waiting in a queue (link egress, stage admission, ...)
  kSerialize,        // occupying a transmitter (wire time)
  kPropagate,        // in flight on a link / through a switch fabric
  kHostCpu,          // host protocol/CPU cost, incl. gateway forwarding
  kRetransmitStall,  // TCP loss detected until recovery completes
  kReassemblyWait,   // bytes arrived, waiting for in-order completion
  kRetryBackoff,     // opened by nothing; kept for gtw-bench's per-phase
                     // budget shares (DESIGN.md section 13)
  kCompute,          // application/stage body work
  kTransfer,         // container: a message/chunk in flight end to end
  kAborted,          // terminal marker: the traced unit was dropped
};

const char* span_phase_name(SpanPhase p);

// A span's place on the VAMPIR lanes: `lane` is a stage index or a
// communicator rank.  A message send also names the lane it goes `to` and
// its byte count.  Lanes are one namespace per tracer.
struct Lane {
  std::int64_t lane = 0;
  std::int64_t to = -1;     // send only: the receiving lane
  std::uint64_t bytes = 0;  // send only: the message size
};

// Implemented by obs::SpanTracer and installed with
// Scheduler::set_span_hook.  Calls are synchronous and in event order.
//
// A hook serves at most one scheduler at a time, and the two know each
// other: installing it records the scheduler here, destroying the hook
// uninstalls it, and destroying the scheduler forgets the hook.  Either may
// die first — components torn down after the hook (a TcpConnection retiring
// its spans) see no hook rather than a dangling one.
struct SpanHook {
  SpanHook() = default;
  SpanHook(const SpanHook&) = delete;
  SpanHook& operator=(const SpanHook&) = delete;
  virtual ~SpanHook();

  // The scheduler this hook is installed on, or nullptr.
  Scheduler* installed_on() const { return installed_on_; }

  // --- scheduler integration (call sites live in des/scheduler.cpp) ----
  virtual void on_event_scheduled(std::uint64_t seq) = 0;
  virtual void on_event_fire(std::uint64_t seq) = 0;
  virtual void on_event_done() = 0;
  virtual void on_event_cancel(std::uint64_t seq) = 0;

  // --- component integration -------------------------------------------
  // Mint a fresh trace rooted at `now` (workload origin).  The new context
  // becomes current until the surrounding event ends or adopt() replaces
  // it.
  virtual TraceContext mint(const char* origin, SimTime now) = 0;
  // The context the currently executing event is attributed to.
  virtual TraceContext current() const = 0;
  // Swap the current context (returns the previous one so call sites can
  // restore it): the payload-handoff bracket described above.
  virtual TraceContext adopt(TraceContext ctx) = 0;
  // Open a span under `parent` (use current() for "under whatever is
  // running").  Returns a span id, or 0 if the tracer filtered it out
  // (disabled layer); end/abort of id 0 is a no-op.
  virtual std::uint64_t begin_span(TraceContext parent, SpanPhase phase,
                                   const char* layer, const char* name,
                                   SimTime now) = 0;
  virtual void end_span(std::uint64_t span_id, SimTime now) = 0;
  // Close a span whose work was discarded (drop, reset, supersede); the
  // span is marked aborted rather than silently leaked.
  virtual void abort_span(std::uint64_t span_id, SimTime now) = 0;
  // Final delivery of the traced unit: closes the root span.
  virtual void close_trace(TraceContext ctx, SimTime now) = 0;
  // Terminal failure of the traced unit: records an `aborted` phase under
  // the root and closes it.
  virtual void abort_trace(TraceContext ctx, const char* reason,
                           SimTime now) = 0;
  // Puts span `span_id` on a lane (id 0 is a no-op).  The default ignores
  // lanes.
  virtual void set_lane(std::uint64_t /*span_id*/, const Lane& /*lane*/) {}

  // VAMPIR messages as zero-width spans, built from the calls above.
  // send_message records one under `ctx` from lane `from` to lane `to` and
  // returns the context its receipt parents on (invalid when untraced or
  // filtered out).  recv_message records that receipt on lane `at` as a
  // child of the send: the parent link is the message's flow edge.
  TraceContext send_message(TraceContext ctx, const char* layer,
                            std::int64_t from, std::int64_t to,
                            std::uint64_t bytes, SimTime now);
  void recv_message(TraceContext send, const char* layer, std::int64_t at,
                    SimTime now);

 private:
  friend class Scheduler;
  Scheduler* installed_on_ = nullptr;  // maintained by Scheduler only
};

}  // namespace gtw::des
