// Deterministic discrete-event scheduler on a 4-ary event heap.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), so a simulation run is a pure
// function of its inputs and seeds — a property the reproduction tests rely
// on when comparing repeated runs.
//
// Engine layout (DESIGN.md §10): event records live in a slab pool
// (des/pool.hpp) and carry their callable inline (des/action.hpp), so the
// steady-state schedule/fire cycle allocates no memory.  The queue
// itself is one vector kept as a 4-ary min-heap of inline (timestamp, seq,
// slot) keys: the children of node i are 4i+1..4i+4, and a sift moves a
// hole rather than swapping items.  (timestamp, seq) is a total order, so
// the fired sequence does not depend on the queue's shape, and a heap has
// no geometry to fit to the workload (DESIGN.md §10 gives the measurements
// behind choosing it over a calendar queue).
//
// The scheduler is also the components' one way into causal tracing
// (DESIGN.md §13): they trace through its span calls and TraceScope, and
// only those two call the installed SpanHook.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "des/action.hpp"
#include "des/check_hook.hpp"
#include "des/pool.hpp"
#include "des/span_hook.hpp"
#include "des/time.hpp"

namespace gtw::des {

class Scheduler;

// Cancellable handle to a scheduled event.  Default-constructed handles are
// inert; cancelling an already-fired event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel();
  bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* s, std::uint64_t seq, std::uint32_t slot)
      : sched_(s), seq_(seq), slot_(slot) {}
  Scheduler* sched_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0xffffffffU;
};

class Scheduler {
 public:
  using Action = des::Action;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler() {
    set_span_hook(nullptr);
    set_check_hook(nullptr);
  }

  SimTime now() const { return now_; }

  // Schedule `action` at absolute time `when` (must be >= now()).
  EventHandle schedule_at(SimTime when, Action action) {
    return insert(when, next_seq_++, std::move(action));
  }
  // Schedule `action` at `when` under a sequence number taken earlier with
  // reserve_seq(): it fires among the events at `when` as if it had been
  // scheduled when the number was taken.  (when, seq) must not have been
  // reached yet.
  EventHandle schedule_at(SimTime when, std::uint64_t seq, Action action) {
    assert(seq < next_seq_ && !reached(when, seq) &&
           "a reserved event must lie ahead of the run");
    return insert(when, seq, std::move(action));
  }
  // Schedule `action` `delay` after the current time.
  EventHandle schedule_after(SimTime delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  // Run until the event queue drains or `horizon` is reached, whichever is
  // first.  Returns the number of events executed.
  std::uint64_t run(SimTime horizon = SimTime::max());

  // Execute at most one event; returns false if the queue was empty or the
  // next event lies beyond `horizon`.
  bool step(SimTime horizon = SimTime::max());

  bool empty() const { return live_events_ == 0; }
  std::uint64_t events_executed() const { return executed_; }
  // Event order, for a component that works out lazily what an event it
  // schedules only when needed would have done (net::Link's
  // transmit-complete).  reserve_seq() takes the sequence number the next
  // schedule call would assign, for a later schedule_at(when, seq, ...).
  // reached(when, seq) is true once the run is past the point where an
  // event keyed (when, seq) fires: now() is later, or equal with the
  // running (or last fired) event at or after `seq`.  After run(horizon)
  // stops at its horizon, every key at now() is reached.
  std::uint64_t reserve_seq() { return next_seq_++; }
  bool reached(SimTime when, std::uint64_t seq) const {
    return now_ > when || (now_ == when && fired_seq_ >= seq);
  }
  // Running FNV-1a hash over the executed event stream — each fired event
  // folds in its (timestamp, sequence) pair.  Two executions of the same
  // simulation must report identical hashes; the determinism regression
  // tests and the double-run replay gate compare exactly this.
  std::uint64_t stream_hash() const { return stream_hash_; }
  // Queue entries including cancelled ones not yet swept/popped — lets tests
  // observe that cancellation churn does not accumulate garbage.
  std::size_t queued_entries() const { return heap_.size(); }
  std::size_t cancelled_entries() const { return cancelled_in_q_; }

  // --- engine observability (read-only; wired up by obs::instrument_scheduler)
  std::size_t live_events() const { return live_events_; }
  // Event-pool footprint: slots allocated, currently live, and the peak.
  std::size_t pool_slots() const { return pool_.slots(); }
  std::size_t pool_in_use() const { return pool_.in_use(); }
  std::size_t pool_high_water() const { return pool_.high_water(); }
  std::size_t pool_slabs() const { return pool_.slabs(); }

  // GTW-San (check::attach_scheduler): observe schedule/fire/cancel in
  // event order.  The hook is notification-only and never steers the
  // schedule.  As with the span hook, a null hook costs one branch per
  // site.  Same lifetime rules as set_span_hook: installing moves the hook
  // off any scheduler it served before, nullptr uninstalls, and either
  // side may be destroyed first.
  void set_check_hook(SchedulerCheckHook* hook);
  SchedulerCheckHook* check_hook() const { return check_hook_; }

  // Causal tracing (obs::SpanTracer, DESIGN.md §13): observe schedule/
  // fire/cancel so trace context propagates through continuation chains.
  // Present in every build; a null hook costs one branch per site.  The
  // hook observes only and never steers the schedule.  Installing a hook
  // moves it off any scheduler it served before; nullptr uninstalls.  The
  // hook and the scheduler may be destroyed in either order: each one's
  // destructor breaks the link (see SpanHook), so span_hook() never
  // returns a destroyed hook.
  void set_span_hook(SpanHook* hook);
  SpanHook* span_hook() const { return span_hook_; }

  // Components trace through these calls and TraceScope, never through the
  // hook: each forwards to the installed hook at now(), and without one
  // does nothing and returns an invalid context or span id 0.  tracing()
  // lets a site skip building a context that only spans would read.
  // begin_span, end_span and abort_span also take an explicit time
  // `at` <= now(), for a component that stamps an instant it handles late
  // (a link retiring a frame at its wire end, DESIGN.md §13).
  bool tracing() const { return span_hook_ != nullptr; }
  TraceContext current_trace() const {
    return span_hook_ != nullptr ? span_hook_->current() : TraceContext{};
  }
  // Mints a trace rooted now; the running event continues under it.
  TraceContext mint(const char* origin) {
    return span_hook_ != nullptr ? span_hook_->mint(origin, now_)
                                 : TraceContext{};
  }
  std::uint64_t begin_span(TraceContext parent, SpanPhase phase,
                           const char* layer, const char* name) {
    return begin_span(parent, phase, layer, name, now_);
  }
  std::uint64_t begin_span(TraceContext parent, SpanPhase phase,
                           const char* layer, const char* name, SimTime at) {
    assert(at <= now_ && "a span cannot begin in the future");
    return span_hook_ != nullptr
               ? span_hook_->begin_span(parent, phase, layer, name, at)
               : 0;
  }
  void end_span(std::uint64_t span_id) { end_span(span_id, now_); }
  void end_span(std::uint64_t span_id, SimTime at) {
    assert(at <= now_ && "a span cannot end in the future");
    if (span_hook_ != nullptr) span_hook_->end_span(span_id, at);
  }
  void abort_span(std::uint64_t span_id) { abort_span(span_id, now_); }
  void abort_span(std::uint64_t span_id, SimTime at) {
    assert(at <= now_ && "a span cannot end in the future");
    if (span_hook_ != nullptr) span_hook_->abort_span(span_id, at);
  }
  void close_trace(TraceContext ctx) {
    if (span_hook_ != nullptr) span_hook_->close_trace(ctx, now_);
  }
  void abort_trace(TraceContext ctx, const char* reason) {
    if (span_hook_ != nullptr) span_hook_->abort_trace(ctx, reason, now_);
  }
  void set_lane(std::uint64_t span_id, const Lane& lane) {
    if (span_hook_ != nullptr) span_hook_->set_lane(span_id, lane);
  }
  TraceContext send_message(TraceContext ctx, const char* layer,
                            std::int64_t from, std::int64_t to,
                            std::uint64_t bytes) {
    return span_hook_ != nullptr
               ? span_hook_->send_message(ctx, layer, from, to, bytes, now_)
               : TraceContext{};
  }
  void recv_message(TraceContext send, const char* layer, std::int64_t at) {
    if (span_hook_ != nullptr) span_hook_->recv_message(send, layer, at, now_);
  }

  // Releases the event pool refused as double frees (check::attach_scheduler).
  std::uint64_t pool_double_frees() const { return pool_.double_frees(); }

 private:
  friend class EventHandle;

  struct Entry {
    SimTime when;
    std::uint64_t seq = 0;  // 0 while the slot is free
    Action action;
    bool cancelled = false;
  };
  using EventId = std::uint32_t;

  // Queue item: the ordering key is carried inline so heap sifts compare
  // contiguous 24-byte items instead of chasing the pool.
  struct QItem {
    SimTime when;
    std::uint64_t seq;
    EventId id;
  };

  static bool earlier(const QItem& a, const QItem& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  EventHandle insert(SimTime when, std::uint64_t seq, Action action);
  void cancel(std::uint64_t seq, EventId slot);
  bool is_pending(std::uint64_t seq, EventId slot) const;

  // Heap primitives: place `it` at the hole `i`, moving the hole up
  // (toward the root) or down until the heap order holds.
  void sift_up(std::size_t i, QItem it);
  void sift_down(std::size_t i, QItem it);
  void pop_top();  // remove heap_[0] (no release)
  void release_entry(EventId id);
  void drop_all_tombstones();
  void sweep_cancelled();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_seq_ = 0;  // the running or last fired event's seq
  std::uint64_t executed_ = 0;
  std::uint64_t stream_hash_ = 14695981039346656037ULL;  // FNV-1a offset

  std::size_t live_events_ = 0;    // scheduled, not yet fired or cancelled
  std::size_t cancelled_in_q_ = 0; // tombstones still occupying heap slots

  SlabPool<Entry, 1024> pool_;
  std::vector<QItem> heap_;  // 4-ary min-heap on (when, seq), tombstones too
  SchedulerCheckHook* check_hook_ = nullptr;
  SpanHook* span_hook_ = nullptr;
};

// Runs the rest of a block under a trace context: saves the running
// context, adopts `ctx` when one is given (valid or not), and restores the
// saved context when the block ends.  A component that hands a payload
// across an async boundary opens one around the handoff, so the events it
// schedules belong to the payload's trace; one opened without `ctx` undoes
// a mint.  Does nothing without a hook.
class TraceScope {
 public:
  explicit TraceScope(Scheduler& sched)
      : sched_(sched), saved_(sched.current_trace()) {}
  TraceScope(Scheduler& sched, TraceContext ctx)
      : sched_(sched),
        saved_(sched.span_hook() != nullptr ? sched.span_hook()->adopt(ctx)
                                            : TraceContext{}) {}
  ~TraceScope() {
    if (SpanHook* h = sched_.span_hook(); h != nullptr) h->adopt(saved_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  // The context restored at exit: the caller's.
  TraceContext saved() const { return saved_; }

 private:
  Scheduler& sched_;
  TraceContext saved_;
};

}  // namespace gtw::des
