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
#pragma once

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
  EventHandle schedule_at(SimTime when, Action action);
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
  std::uint64_t executed_ = 0;
  std::uint64_t stream_hash_ = 14695981039346656037ULL;  // FNV-1a offset

  std::size_t live_events_ = 0;    // scheduled, not yet fired or cancelled
  std::size_t cancelled_in_q_ = 0; // tombstones still occupying heap slots

  SlabPool<Entry, 1024> pool_;
  std::vector<QItem> heap_;  // 4-ary min-heap on (when, seq), tombstones too
  SchedulerCheckHook* check_hook_ = nullptr;
  SpanHook* span_hook_ = nullptr;
};

}  // namespace gtw::des
