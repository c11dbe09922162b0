#include "des/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace gtw::des {

namespace {
// FNV-1a over the 8 bytes of `v`, little-endian.
void fnv1a_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

// Children of heap node i are kArity*i+1 .. kArity*i+kArity.  Four
// children of 24 bytes span 1.5 cache lines, and the tree is half as deep
// as a binary heap's.
constexpr std::size_t kArity = 4;
}  // namespace

void EventHandle::cancel() {
  if (sched_ != nullptr && seq_ != 0) sched_->cancel(seq_, slot_);
  // Null every member, not just the scheduler pointer: a stale (seq_, slot_)
  // pair in a copied handle must never be able to alias a recycled slot.
  sched_ = nullptr;
  seq_ = 0;
  slot_ = 0xffffffffU;
}

bool EventHandle::pending() const {
  return sched_ != nullptr && sched_->is_pending(seq_, slot_);
}

void Scheduler::set_span_hook(SpanHook* hook) {
  if (span_hook_ != nullptr) span_hook_->installed_on_ = nullptr;
  if (hook != nullptr && hook->installed_on_ != nullptr)
    hook->installed_on_->span_hook_ = nullptr;
  span_hook_ = hook;
  if (hook != nullptr) hook->installed_on_ = this;
}

void Scheduler::set_check_hook(SchedulerCheckHook* hook) {
  if (check_hook_ != nullptr) check_hook_->installed_on_ = nullptr;
  if (hook != nullptr && hook->installed_on_ != nullptr)
    hook->installed_on_->check_hook_ = nullptr;
  check_hook_ = hook;
  if (hook != nullptr) hook->installed_on_ = this;
}

SchedulerCheckHook::~SchedulerCheckHook() {
  if (installed_on_ != nullptr) installed_on_->set_check_hook(nullptr);
}

EventHandle Scheduler::insert(SimTime when, std::uint64_t seq, Action action) {
  assert(when >= now_ && "cannot schedule into the past");
  const EventId id = pool_.acquire();
  Entry& e = pool_[id];
  e.when = when;
  e.seq = seq;
  e.action = std::move(action);
  e.cancelled = false;
  if (check_hook_ != nullptr) check_hook_->on_schedule(when, now_, seq);
  if (span_hook_ != nullptr) span_hook_->on_event_scheduled(seq);
  ++live_events_;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, QItem{when, seq, id});
  return EventHandle{this, seq, id};
}

void Scheduler::sift_up(std::size_t i, QItem it) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(it, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = it;
}

void Scheduler::sift_down(std::size_t i, QItem it) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], it)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = it;
}

void Scheduler::pop_top() {
  const QItem last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void Scheduler::release_entry(EventId id) {
  Entry& e = pool_[id];
  e.action.reset();
  e.seq = 0;  // stale handles compare against this and miss
  e.cancelled = false;
  pool_.release(id);
}

void Scheduler::cancel(std::uint64_t seq, EventId slot) {
  if (seq == 0 || slot == SlabPool<Entry, 1024>::kInvalid) return;
  Entry& e = pool_[slot];
  if (e.seq != seq || e.cancelled) {
    // Stale handles (event already fired, slot possibly recycled) are a
    // documented no-op; a matching-but-tombstoned entry means a *copied*
    // handle cancelled the same live event twice — the seq-as-generation
    // defence caught an aliasing bug.
    if (check_hook_ != nullptr)
      check_hook_->on_cancel(seq,
                             e.seq == seq && e.cancelled
                                 ? SchedulerCheckHook::CancelOutcome::kDouble
                                 : SchedulerCheckHook::CancelOutcome::kStale);
    return;
  }
  if (check_hook_ != nullptr)
    check_hook_->on_cancel(seq, SchedulerCheckHook::CancelOutcome::kCancelled);
  if (span_hook_ != nullptr) span_hook_->on_event_cancel(seq);
  e.cancelled = true;
  // Drop the capture now rather than at sweep/pop time — cancelled events
  // routinely hold the largest captures (retransmit timers with packets).
  e.action.reset();
  --live_events_;
  ++cancelled_in_q_;
  // Once tombstones outnumber live entries, sweep — cancellation-heavy
  // workloads stay O(live), not O(ever-scheduled).
  if (cancelled_in_q_ > live_events_) sweep_cancelled();
}

bool Scheduler::is_pending(std::uint64_t seq, EventId slot) const {
  if (seq == 0 || slot == SlabPool<Entry, 1024>::kInvalid) return false;
  const Entry& e = pool_[slot];
  return e.seq == seq && !e.cancelled;
}

void Scheduler::sweep_cancelled() {
  auto alive = heap_.begin();
  for (const QItem& it : heap_) {
    if (pool_[it.id].cancelled)
      release_entry(it.id);
    else
      *alive++ = it;
  }
  heap_.erase(alive, heap_.end());
  // Floyd's heapify: sift every internal node down, deepest first — O(n).
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;)
      sift_down(i, heap_[i]);
  }
  cancelled_in_q_ = 0;
}

void Scheduler::drop_all_tombstones() {
  for (const QItem& it : heap_) release_entry(it.id);
  heap_.clear();
  cancelled_in_q_ = 0;
}

bool Scheduler::step(SimTime horizon) {
  if (live_events_ == 0) {
    // Nothing left to fire; drop any remaining tombstones so a drained
    // scheduler reports zero queued entries.
    if (cancelled_in_q_ != 0) drop_all_tombstones();
    return false;
  }
  // Release cancelled tops as they surface; live_events_ > 0 guarantees a
  // live item underneath.
  while (cancelled_in_q_ != 0 && pool_[heap_.front().id].cancelled) {
    const EventId dead = heap_.front().id;
    pop_top();
    --cancelled_in_q_;
    release_entry(dead);
  }
  const QItem it = heap_.front();
  if (it.when > horizon) return false;
  pop_top();
  if (check_hook_ != nullptr) check_hook_->on_fire(it.when, it.seq);
  --live_events_;
  now_ = it.when;
  fired_seq_ = it.seq;
  ++executed_;
  fnv1a_mix(stream_hash_, static_cast<std::uint64_t>(it.when.ps()));
  fnv1a_mix(stream_hash_, it.seq);
  // Move the action out and free the slot *before* invoking: the action may
  // schedule or cancel, which may recycle this slot — nothing below
  // references the entry.
  Action action = std::move(pool_[it.id].action);
  release_entry(it.id);
  if (span_hook_ != nullptr) {
    span_hook_->on_event_fire(it.seq);
    action();
    span_hook_->on_event_done();
  } else {
    action();
  }
  return true;
}

std::uint64_t Scheduler::run(SimTime horizon) {
  std::uint64_t n = 0;
  while (step(horizon)) ++n;
  if (queued_entries() != 0 && horizon != SimTime::max()) {
    now_ = horizon;
    fired_seq_ = UINT64_MAX;  // nothing keyed at or before the horizon waits
  }
  return n;
}

}  // namespace gtw::des
