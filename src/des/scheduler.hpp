// Deterministic discrete-event scheduler on a calendar queue.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), so a simulation run is a pure
// function of its inputs and seeds — a property the reproduction tests rely
// on when comparing repeated runs.
//
// Engine layout (DESIGN.md §10): event records live in a slab pool
// (des/pool.hpp) and carry their callable inline (des/action.hpp), so the
// steady-state schedule/fire cycle performs no heap allocation.  The queue
// itself is a calendar: the current "day" is split into power-of-two-width
// buckets, each a small min-heap ordered by (timestamp, seq); events beyond
// the day wait in a ladder-style overflow heap and are redistributed when
// their day arrives.  The table auto-resizes (bucket count tracks the live
// event count, bucket width tracks the observed inter-event gap), giving
// O(1) amortized schedule/fire against the vector-heap's O(log n) — the
// difference between thousands and millions of concurrent flows.
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
  ~Scheduler() { set_span_hook(nullptr); }

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
  std::size_t queued_entries() const { return calendar_size_ + overflow_.size(); }
  std::size_t cancelled_entries() const { return cancelled_in_q_; }

  // --- engine observability (read-only; wired up by obs::instrument_scheduler)
  std::size_t live_events() const { return live_events_; }
  std::size_t calendar_buckets() const { return buckets_.size(); }
  std::size_t overflow_entries() const { return overflow_.size(); }
  // Most entries any single bucket ever held (tombstones included).
  std::size_t bucket_high_water() const { return bucket_high_water_; }
  std::size_t overflow_high_water() const { return overflow_high_water_; }
  std::uint64_t calendar_resizes() const { return resizes_; }
  // Event-pool footprint: slots allocated, currently live, and the peak.
  std::size_t pool_slots() const { return pool_.slots(); }
  std::size_t pool_in_use() const { return pool_.in_use(); }
  std::size_t pool_high_water() const { return pool_.high_water(); }
  std::size_t pool_slabs() const { return pool_.slabs(); }

  // GTW-San (check::attach_scheduler): observe schedule/fire/cancel in
  // event order.  The hook must outlive the scheduler or be detached with
  // nullptr first; it is notification-only and never steers the schedule.
  // The slot exists in every build; the notifying call sites are
  // GTW_CHECK_HOOK-guarded and compile away when checking is off.
  void set_check_hook(SchedulerCheckHook* hook) { check_hook_ = hook; }

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
#if defined(GTW_CHECK)
  std::uint64_t pool_double_frees() const {
    return pool_.check_double_frees();
  }
#endif

 private:
  friend class EventHandle;

  struct Entry {
    SimTime when;
    std::uint64_t seq = 0;  // 0 while the slot is free
    Action action;
    bool cancelled = false;
  };
  using EventId = std::uint32_t;

  // Queue item: the ordering key is carried inline so heap sifts and the
  // rebuild sort compare contiguous 24-byte items instead of chasing the
  // pool — on deep tiers the pointer chase is pure cache-miss traffic.
  struct QItem {
    SimTime when;
    std::uint64_t seq;
    EventId id;
  };

  // Min-first comparison for heap use (std::push_heap keeps the *largest*
  // in front under operator<, so "later" ordering yields earliest-first).
  static bool later(const QItem& a, const QItem& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  void cancel(std::uint64_t seq, EventId slot);
  bool is_pending(std::uint64_t seq, EventId slot) const;

  std::uint64_t day_of(SimTime t) const {
    return static_cast<std::uint64_t>(t.ps()) >>
           (width_shift_ + bucket_shift_);
  }
  std::size_t bucket_of(SimTime t) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(t.ps()) >> width_shift_) &
        ((std::size_t{1} << bucket_shift_) - 1));
  }

  void place(QItem it);             // route an entry to its bucket/overflow
  void push_bucket(std::size_t b, QItem it);
  void pop_bucket(std::size_t b);   // pop the top item (heap pop, no release)
  void release_entry(EventId id);
  // Position the queue so the globally earliest live event is the top of
  // buckets_[scan_idx_]; returns it (requires live_events_ > 0).  Advances
  // days and redistributes overflow as a side effect — which is invisible:
  // it never changes the (time, seq) execution order.
  QItem find_next();
  void drop_all_tombstones();
  void sweep_cancelled();
  void maybe_resize();
  void rebuild(unsigned new_bucket_shift);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t stream_hash_ = 14695981039346656037ULL;  // FNV-1a offset

  std::size_t live_events_ = 0;    // scheduled, not yet fired or cancelled
  std::size_t cancelled_in_q_ = 0; // tombstones still occupying queue slots
  std::size_t calendar_size_ = 0;  // ids stored across buckets_ (incl. tombstones)

  // Calendar geometry.  Bucket width and day length are powers of two of
  // picoseconds so event->bucket mapping is two shifts and a mask; the
  // absolute alignment makes day indices stable under resize.
  unsigned width_shift_ = 20;  // 2^20 ps ~ 1 us buckets initially
  unsigned bucket_shift_ = 6;  // 64 buckets initially
  std::uint64_t current_day_ = 0;
  std::size_t scan_idx_ = 0;  // next bucket to examine within the day

  SlabPool<Entry, 1024> pool_;
  std::vector<std::vector<QItem>> buckets_ =
      std::vector<std::vector<QItem>>(64);
  std::vector<QItem> overflow_;  // min-heap of beyond-the-day events
  std::vector<QItem> rebuild_scratch_;

  std::size_t bucket_high_water_ = 0;
  std::size_t overflow_high_water_ = 0;
  std::uint64_t resizes_ = 0;
  SchedulerCheckHook* check_hook_ = nullptr;
  SpanHook* span_hook_ = nullptr;
};

}  // namespace gtw::des
