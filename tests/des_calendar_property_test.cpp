// Property test: the event-heap scheduler is observationally identical to
// a reference scheduler (the seed engine's ordering rule, re-implemented
// here in its simplest possible form).
//
// A randomized workload of schedules, cancels, nested reschedules, timestamp
// collisions, and horizon-bounded runs is driven through both engines with
// the same RNG stream.  The full execution transcript — (timestamp, tag) per
// fired event — and the FNV-1a stream hash must match exactly.  This pins
// the queue's mechanics (sifts across heap levels, tombstones released at
// the top, sweeps that re-heapify) to the simple model: any internal
// reorganization that leaks into execution order is caught here.  The
// suite name CalendarPropertyTest dates from the calendar queue the heap
// replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "des/time.hpp"

namespace gtw::des {
namespace {

// FNV-1a over the 8 bytes of `v`, little-endian — must match the engine's.
void fnv1a_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

// Reference model: a plain sorted-on-demand event list with (time, seq)
// ordering and lazy cancellation.  Deliberately naive — correctness oracle,
// not a performance baseline.
class ReferenceScheduler {
 public:
  using Handle = std::uint64_t;  // seq; 0 = inert

  SimTime now() const { return now_; }
  std::uint64_t stream_hash() const { return hash_; }
  bool empty() const { return live_ == 0; }

  Handle schedule_at(SimTime when, std::function<void()> fn) {
    const std::uint64_t seq = next_seq_++;
    events_.push_back(Ev{when, seq, std::move(fn), false});
    ++live_;
    return seq;
  }
  Handle schedule_after(SimTime delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  void cancel(Handle h) {
    if (h == 0) return;
    for (Ev& e : events_) {
      if (e.seq == h && !e.cancelled) {
        e.cancelled = true;
        --live_;
        return;
      }
    }
  }

  bool step(SimTime horizon) {
    auto best = events_.end();
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->cancelled) continue;
      if (best == events_.end() || it->when < best->when ||
          (it->when == best->when && it->seq < best->seq))
        best = it;
    }
    if (best == events_.end() || best->when > horizon) return false;
    now_ = best->when;
    fnv1a_mix(hash_, static_cast<std::uint64_t>(best->when.ps()));
    fnv1a_mix(hash_, best->seq);
    std::function<void()> fn = std::move(best->fn);
    events_.erase(best);
    --live_;
    fn();
    return true;
  }

  std::uint64_t run(SimTime horizon = SimTime::max()) {
    std::uint64_t n = 0;
    while (step(horizon)) ++n;
    // Mirror the engine: a bounded run leaves the clock at the horizon so
    // relative scheduling after the run starts from the same base time.
    if (live_ != 0 && horizon != SimTime::max()) now_ = horizon;
    return n;
  }

 private:
  struct Ev {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> fn;
    bool cancelled;
  };
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
  std::size_t live_ = 0;
  std::vector<Ev> events_;
};

using Transcript = std::vector<std::pair<std::int64_t, int>>;

// Drive one engine through the randomized workload.  Every RNG draw happens
// in the same order for both engines, so the schedules are bit-identical.
template <typename Sched, typename Handle>
Transcript drive(Sched& sched, std::uint64_t seed, std::uint64_t* hash_out) {
  Rng rng(seed);
  Transcript out;
  std::vector<Handle> cancellable;
  int next_tag = 0;

  // Self-rescheduling actor: models protocol timers that re-arm from within
  // their own callback, including same-timestamp bursts.
  std::function<void(int, int)> actor = [&](int tag, int depth) {
    out.emplace_back(sched.now().ps(), tag);
    if (depth <= 0) return;
    const std::uint64_t jitter = rng.next_u64() % 3;  // 0 => same timestamp
    sched.schedule_after(
        SimTime::picoseconds(static_cast<std::int64_t>(jitter * 40'000)),
        [&actor, tag, depth] { actor(tag, depth - 1); });
  };

  for (int round = 0; round < 40; ++round) {
    // A burst of fresh events: near, far, and colliding timestamps.  The
    // far band reaches 80 ms.
    for (int i = 0; i < 25; ++i) {
      const std::uint64_t r = rng.next_u64();
      std::int64_t delay_ps = 0;
      switch (r % 4) {
        case 0: delay_ps = static_cast<std::int64_t>(r % 200'000); break;
        case 1: delay_ps = static_cast<std::int64_t>(r % 50'000'000); break;
        case 2: delay_ps = static_cast<std::int64_t>(r % 80'000'000'000); break;
        default: delay_ps = 777'000; break;  // deliberate collisions
      }
      const int tag = next_tag++;
      if (r % 5 == 0) {
        const int depth = static_cast<int>(r % 3);
        cancellable.push_back(sched.schedule_after(
            SimTime::picoseconds(delay_ps),
            [&actor, tag, depth] { actor(tag, depth); }));
      } else {
        cancellable.push_back(sched.schedule_after(
            SimTime::picoseconds(delay_ps), [&out, &sched, tag] {
              out.emplace_back(sched.now().ps(), tag);
            }));
      }
    }
    // Churn: cancel a deterministic random subset (some already fired —
    // must be inert), including immediate double-cancels.
    for (int i = 0; i < 8 && !cancellable.empty(); ++i) {
      const std::size_t pick = rng.next_u64() % cancellable.size();
      sched.cancel(cancellable[pick]);
      if (rng.next_u64() % 2 == 0) sched.cancel(cancellable[pick]);
      cancellable.erase(cancellable.begin() +
                        static_cast<std::ptrdiff_t>(pick));
    }
    // Drain a horizon-bounded slice, so later rounds insert both before and
    // after events already pending.
    const std::int64_t horizon_ps =
        sched.now().ps() + static_cast<std::int64_t>(rng.next_u64() % 30'000'000);
    sched.run(SimTime::picoseconds(horizon_ps));
  }
  sched.run();
  *hash_out = sched.stream_hash();
  return out;
}

TEST(CalendarPropertyTest, MatchesReferenceHeapUnderRandomChurn) {
  for (std::uint64_t seed : {1ULL, 0xdecafULL, 0x9e3779b97f4a7c15ULL}) {
    // des::Scheduler::cancel is private (handles cancel themselves), so wrap
    // both engines behind the same micro-interface.
    struct CalWrap {
      Scheduler s;
      SimTime now() const { return s.now(); }
      std::uint64_t stream_hash() const { return s.stream_hash(); }
      EventHandle schedule_after(SimTime d, Scheduler::Action a) {
        return s.schedule_after(d, std::move(a));
      }
      void cancel(EventHandle& h) { h.cancel(); }
      std::uint64_t run(SimTime h = SimTime::max()) { return s.run(h); }
    };
    struct RefWrap {
      ReferenceScheduler s;
      SimTime now() const { return s.now(); }
      std::uint64_t stream_hash() const { return s.stream_hash(); }
      ReferenceScheduler::Handle schedule_after(SimTime d,
                                                std::function<void()> f) {
        return s.schedule_after(d, std::move(f));
      }
      void cancel(ReferenceScheduler::Handle h) { s.cancel(h); }
      std::uint64_t run(SimTime h = SimTime::max()) { return s.run(h); }
    };

    CalWrap cal;
    RefWrap ref;
    std::uint64_t cal_hash = 0, ref_hash = 0;
    const Transcript cal_t =
        drive<CalWrap, EventHandle>(cal, seed, &cal_hash);
    const Transcript ref_t =
        drive<RefWrap, ReferenceScheduler::Handle>(ref, seed, &ref_hash);

    ASSERT_EQ(cal_t.size(), ref_t.size()) << "seed " << seed;
    for (std::size_t i = 0; i < cal_t.size(); ++i) {
      ASSERT_EQ(cal_t[i], ref_t[i])
          << "seed " << seed << " diverges at event " << i;
    }
    EXPECT_EQ(cal_hash, ref_hash) << "seed " << seed;
  }
}

// The transcript must also be insensitive to the population's shape: a
// large front-loaded population drains in order.
TEST(CalendarPropertyTest, FrontLoadedPopulationPreservesOrder) {
  Scheduler sched;
  ReferenceScheduler ref;
  Rng rng(0x5ca1ab1eULL);
  std::vector<std::int64_t> delays;
  for (int i = 0; i < 3000; ++i)
    delays.push_back(static_cast<std::int64_t>(rng.next_u64() % 2'000'000));

  Transcript cal_t, ref_t;
  for (int i = 0; i < 3000; ++i) {
    sched.schedule_after(SimTime::picoseconds(delays[static_cast<std::size_t>(i)]),
                         [&cal_t, &sched, i] {
                           cal_t.emplace_back(sched.now().ps(), i);
                         });
    ref.schedule_after(SimTime::picoseconds(delays[static_cast<std::size_t>(i)]),
                       [&ref_t, &ref, i] {
                         ref_t.emplace_back(ref.now().ps(), i);
                       });
  }
  sched.run();
  ref.run();
  EXPECT_EQ(cal_t, ref_t);
  EXPECT_EQ(sched.stream_hash(), ref.stream_hash());
}

// The 4-ary heap's shape changes at level boundaries: full levels end at
// 1, 5, 21, 85 and 341 items, and the last parent's child group is partial
// everywhere in between.  Hold the engine at pending sizes on both sides
// of each boundary, going up and then down, while events fire and re-arm,
// with cancels, sweeps and horizon-bounded runs in between, and compare
// with the reference after every step.  A child or parent index that is
// off by one misorders some pop at one of these sizes.
TEST(QueuePropertyTest, MatchesReferenceAcrossHeapLevels) {
  const std::vector<std::size_t> kSizes = {1, 4, 5, 20, 21, 84, 85, 341, 342};
  Scheduler sched;
  ReferenceScheduler ref;
  Rng rng(0x4a7e1eafULL);
  Transcript got, want;
  std::vector<EventHandle> handles;
  std::vector<ReferenceScheduler::Handle> ref_handles;
  int next_tag = 0;

  // Delays on a coarse grid, so timestamps collide and seq decides.
  auto schedule_one = [&] {
    const auto delay = SimTime::picoseconds(
        static_cast<std::int64_t>(rng.next_u64() % 48) * 1'000);
    const int tag = next_tag++;
    handles.push_back(sched.schedule_after(delay, [&got, &sched, tag] {
      got.emplace_back(sched.now().ps(), tag);
    }));
    ref_handles.push_back(ref.schedule_after(delay, [&want, &ref, tag] {
      want.emplace_back(ref.now().ps(), tag);
    }));
  };
  auto step_both = [&] {
    ASSERT_EQ(sched.step(), ref.step(SimTime::max()));
    ASSERT_EQ(got, want);
  };
  // Cancels random pending events until stop(cancels so far) holds or none
  // is left; returns how many it cancelled.
  auto cancel_until = [&](auto stop) {
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < handles.size(); ++i)
      if (handles[i].pending()) pending.push_back(i);
    std::size_t n = 0;
    while (!pending.empty() && !stop(n)) {
      const std::size_t k = rng.next_u64() % pending.size();
      handles[pending[k]].cancel();
      ref.cancel(ref_handles[pending[k]]);
      pending[k] = pending.back();
      pending.pop_back();
      ++n;
    }
    return n;
  };

  std::size_t sweeps = 0;
  std::vector<std::size_t> order = kSizes;
  order.insert(order.end(), kSizes.rbegin(), kSizes.rend());
  for (const std::size_t size : order) {
    // No tombstones here (the last phase ended in a sweep), so every step
    // removes exactly one item.
    while (sched.queued_entries() > size) step_both();
    while (sched.queued_entries() < size) schedule_one();
    ASSERT_EQ(sched.queued_entries(), size);
    // Fire one, re-arm one: every pop sifts down from `size`, every push
    // sifts up into index size-1.
    for (std::size_t i = 0; i < 2 * size + 8; ++i) {
      step_both();
      schedule_one();
      ASSERT_EQ(sched.queued_entries(), size);
    }
    // A few tombstones, left for the pops to release, then a bounded run.
    cancel_until([&](std::size_t n) { return n > size / 8; });
    const SimTime horizon =
        sched.now() + SimTime::picoseconds(
                          static_cast<std::int64_t>(rng.next_u64() % 8'000));
    EXPECT_EQ(sched.run(horizon), ref.run(horizon)) << "size " << size;
    ASSERT_EQ(got, want) << "size " << size;
    ASSERT_EQ(sched.now(), ref.now());
    // Cancel until tombstones outnumber live events: the sweep drops them
    // and re-heapifies the rest, leaving no tombstone behind.
    if (cancel_until([&](std::size_t n) {
          return n > 0 && sched.cancelled_entries() == 0;
        }) > 0)
      ++sweeps;
    ASSERT_EQ(sched.cancelled_entries(), 0u);
  }
  sched.run();
  ref.run();
  EXPECT_EQ(got, want);
  EXPECT_EQ(sched.stream_hash(), ref.stream_hash());
  EXPECT_GE(sweeps, kSizes.size());  // most phases end in a sweep
  EXPECT_EQ(sched.queued_entries(), 0u);
}

}  // namespace
}  // namespace gtw::des
