#include "des/scheduler.hpp"

#include <algorithm>
#include <bit>
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

constexpr unsigned kMinBucketShift = 6;   // 64 buckets
constexpr unsigned kMaxBucketShift = 18;  // 262144 buckets
// Bucket width bounds: 2^10 ps ~ 1 ns up to 2^40 ps ~ 1.1 s.
constexpr unsigned kMinWidthShift = 10;
constexpr unsigned kMaxWidthShift = 40;
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

EventHandle Scheduler::schedule_at(SimTime when, Action action) {
  assert(when >= now_ && "cannot schedule into the past");
  const EventId id = pool_.acquire();
  Entry& e = pool_[id];
  e.when = when;
  e.seq = next_seq_++;
  e.action = std::move(action);
  e.cancelled = false;
  const std::uint64_t seq = e.seq;
  GTW_CHECK_HOOK(if (check_hook_ != nullptr)
                     check_hook_->on_schedule(when, now_, seq));
  if (span_hook_ != nullptr) span_hook_->on_event_scheduled(seq);
  ++live_events_;
  place(QItem{when, seq, id});
  maybe_resize();
  return EventHandle{this, seq, id};
}

void Scheduler::place(QItem it) {
  const std::uint64_t day = day_of(it.when);
  if (day == current_day_) {
    push_bucket(bucket_of(it.when), it);
    return;
  }
  if (day > current_day_) {
    overflow_.push_back(it);
    std::push_heap(overflow_.begin(), overflow_.end(), later);
    if (overflow_.size() > overflow_high_water_)
      overflow_high_water_ = overflow_.size();
    return;
  }
  // day < current_day_: the pop path jumped the calendar to a far-future day
  // (everything nearer had fired), but the clock itself lags behind — a new
  // event can legally land in between.  Rewind: demote the whole calendar to
  // the overflow tier and restart the day at the new event.  Ordering is
  // untouched; events merely change tiers.
  for (auto& b : buckets_) {
    overflow_.insert(overflow_.end(), b.begin(), b.end());
    b.clear();
  }
  std::make_heap(overflow_.begin(), overflow_.end(), later);
  if (overflow_.size() > overflow_high_water_)
    overflow_high_water_ = overflow_.size();
  calendar_size_ = 0;
  current_day_ = day;
  scan_idx_ = 0;
  push_bucket(bucket_of(it.when), it);
}

void Scheduler::push_bucket(std::size_t b, QItem it) {
  auto& v = buckets_[b];
  v.push_back(it);
  std::push_heap(v.begin(), v.end(), later);
  ++calendar_size_;
  if (v.size() > bucket_high_water_) bucket_high_water_ = v.size();
  if (b < scan_idx_) scan_idx_ = b;
}

void Scheduler::pop_bucket(std::size_t b) {
  auto& v = buckets_[b];
  std::pop_heap(v.begin(), v.end(), later);
  v.pop_back();
  --calendar_size_;
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
    GTW_CHECK_HOOK(if (check_hook_ != nullptr) check_hook_->on_cancel(
        seq, e.seq == seq && e.cancelled
                 ? SchedulerCheckHook::CancelOutcome::kDouble
                 : SchedulerCheckHook::CancelOutcome::kStale));
    return;
  }
  GTW_CHECK_HOOK(if (check_hook_ != nullptr) check_hook_->on_cancel(
      seq, SchedulerCheckHook::CancelOutcome::kCancelled));
  if (span_hook_ != nullptr) span_hook_->on_event_cancel(seq);
  e.cancelled = true;
  // Drop the capture now rather than at sweep/pop time — cancelled events
  // routinely hold the largest captures (retransmit timers with packets).
  e.action.reset();
  --live_events_;
  ++cancelled_in_q_;
  // Once tombstones outnumber live entries, sweep — cancellation-heavy
  // workloads stay O(live), not O(ever-scheduled).
  if (cancelled_in_q_ > live_events_)
    sweep_cancelled();
  else
    maybe_resize();
}

bool Scheduler::is_pending(std::uint64_t seq, EventId slot) const {
  if (seq == 0 || slot == SlabPool<Entry, 1024>::kInvalid) return false;
  const Entry& e = pool_[slot];
  return e.seq == seq && !e.cancelled;
}

void Scheduler::sweep_cancelled() {
  for (auto& b : buckets_) {
    auto alive = b.begin();
    for (const QItem& it : b) {
      if (pool_[it.id].cancelled)
        release_entry(it.id);
      else
        *alive++ = it;
    }
    calendar_size_ -= static_cast<std::size_t>(b.end() - alive);
    b.erase(alive, b.end());
    std::make_heap(b.begin(), b.end(), later);
  }
  auto alive = overflow_.begin();
  for (const QItem& it : overflow_) {
    if (pool_[it.id].cancelled)
      release_entry(it.id);
    else
      *alive++ = it;
  }
  overflow_.erase(alive, overflow_.end());
  std::make_heap(overflow_.begin(), overflow_.end(), later);
  cancelled_in_q_ = 0;
}

void Scheduler::drop_all_tombstones() {
  for (auto& b : buckets_) {
    for (const QItem& it : b) release_entry(it.id);
    b.clear();
  }
  for (const QItem& it : overflow_) release_entry(it.id);
  overflow_.clear();
  calendar_size_ = 0;
  cancelled_in_q_ = 0;
}

Scheduler::QItem Scheduler::find_next() {
  for (;;) {
    // Scan forward within the current day.  Buckets hold *only* current-day
    // events (future days wait in the overflow tier), so the first non-empty
    // bucket's top is the global minimum — no wrap-around checks needed.
    const std::size_t nb = buckets_.size();
    while (scan_idx_ < nb) {
      auto& b = buckets_[scan_idx_];
      while (!b.empty() && pool_[b.front().id].cancelled) {
        const EventId dead = b.front().id;
        pop_bucket(scan_idx_);
        --cancelled_in_q_;
        release_entry(dead);
      }
      if (!b.empty()) return b.front();
      ++scan_idx_;
    }
    // Day exhausted: jump straight to the day of the earliest overflow event
    // (empty days cost nothing) and pull that whole day into the buckets.
    while (!overflow_.empty() && pool_[overflow_.front().id].cancelled) {
      const EventId dead = overflow_.front().id;
      std::pop_heap(overflow_.begin(), overflow_.end(), later);
      overflow_.pop_back();
      --cancelled_in_q_;
      release_entry(dead);
    }
    assert(!overflow_.empty() && "live_events_ > 0 but no event found");
    current_day_ = day_of(overflow_.front().when);
    scan_idx_ = 0;
    while (!overflow_.empty()) {
      const QItem top = overflow_.front();
      const bool dead = pool_[top.id].cancelled;
      if (!dead && day_of(top.when) != current_day_) break;
      std::pop_heap(overflow_.begin(), overflow_.end(), later);
      overflow_.pop_back();
      if (dead) {
        --cancelled_in_q_;
        release_entry(top.id);
      } else {
        push_bucket(bucket_of(top.when), top);
      }
    }
  }
}

bool Scheduler::step(SimTime horizon) {
  if (live_events_ == 0) {
    // Nothing left to fire; drop any remaining tombstones so a drained
    // scheduler reports zero queued entries, as the vector-heap did.
    if (cancelled_in_q_ != 0) drop_all_tombstones();
    return false;
  }
  const QItem it = find_next();
  if (it.when > horizon) return false;
  pop_bucket(scan_idx_);
  GTW_CHECK_HOOK(if (check_hook_ != nullptr)
                     check_hook_->on_fire(it.when, it.seq));
  --live_events_;
  now_ = it.when;
  ++executed_;
  fnv1a_mix(stream_hash_, static_cast<std::uint64_t>(it.when.ps()));
  fnv1a_mix(stream_hash_, it.seq);
  // Move the action out and free the slot *before* invoking: the action may
  // schedule, cancel, or trigger a calendar resize, all of which may touch
  // this slot's tier — nothing below references the entry.
  Action action = std::move(pool_[it.id].action);
  release_entry(it.id);
  maybe_resize();
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
  if (queued_entries() != 0 && horizon != SimTime::max()) now_ = horizon;
  return n;
}

void Scheduler::maybe_resize() {
  const std::size_t nb = std::size_t{1} << bucket_shift_;
  const bool grow = live_events_ > 2 * nb && bucket_shift_ < kMaxBucketShift;
  const bool shrink = live_events_ < nb / 8 && bucket_shift_ > kMinBucketShift;
  if (!grow && !shrink) return;
  const unsigned target = static_cast<unsigned>(std::bit_width(
      std::max<std::size_t>(live_events_, std::size_t{1} << kMinBucketShift)));
  rebuild(std::clamp(target, kMinBucketShift, kMaxBucketShift));
}

void Scheduler::rebuild(unsigned new_bucket_shift) {
  ++resizes_;
  auto& live = rebuild_scratch_;
  live.clear();
  for (auto& b : buckets_) {
    for (const QItem& it : b) {
      if (pool_[it.id].cancelled)
        release_entry(it.id);
      else
        live.push_back(it);
    }
    b.clear();
  }
  for (const QItem& it : overflow_) {
    if (pool_[it.id].cancelled)
      release_entry(it.id);
    else
      live.push_back(it);
  }
  overflow_.clear();
  calendar_size_ = 0;
  cancelled_in_q_ = 0;

  bucket_shift_ = new_bucket_shift;
  buckets_.resize(std::size_t{1} << bucket_shift_);

  if (live.empty()) {
    current_day_ = day_of(now_);
    scan_idx_ = 0;
    return;
  }

  // Re-estimate the bucket width from the *imminent* inter-event gap: sort
  // the survivors and size buckets so one day spans ~4x the next
  // table-load of events.  The headroom factor keeps the bulk of the live
  // horizon inside the current day — with a day sized exactly to the
  // sampled span, roughly half the events would straddle the day boundary
  // and detour through the overflow heap.  Far-future timers land in the
  // overflow tier and do not distort the estimate.
  std::sort(live.begin(), live.end(),
            [](const QItem& a, const QItem& b) { return later(b, a); });
  const std::size_t k = std::min(live.size(), buckets_.size());
  const std::uint64_t span = static_cast<std::uint64_t>(
      live[k - 1].when.ps() - live[0].when.ps());
  const std::uint64_t gap = (span / static_cast<std::uint64_t>(k)) * 4 + 1;
  const unsigned ws = static_cast<unsigned>(std::bit_width(gap));
  width_shift_ = std::clamp(ws, kMinWidthShift,
                            std::min(kMaxWidthShift, 61U - bucket_shift_));
  current_day_ = day_of(live[0].when);
  scan_idx_ = 0;
  for (const QItem& it : live) place(it);
  live.clear();
}

}  // namespace gtw::des
