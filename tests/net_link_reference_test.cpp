// net::Link against a test-local copy of the two-event link it replaced (as
// fire_kernels_test.cpp keeps its plain:: kernels): one transmit-complete
// and one propagation event per frame.  Both links run side by side on one
// scheduler from seeded random schedules — frame sizes, queue limits and
// squeezes, bit-error rates set and cleared, cuts and restores — with
// actions placed at exact wire ends, both before and after the frame in
// question started.  After every event of the reference link or of the
// schedule, every ledger of the two links must read the same; at the end
// they must have delivered the same frames at the same picoseconds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <utility>
#include <vector>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "des/stats.hpp"
#include "net/link.hpp"
#include "units/units.hpp"

namespace gtw::net {
namespace {

using des::SimTime;

namespace twoevent {

// The two-event link (spans left out: these frames are untraced).
class Link {
 public:
  Link(des::Scheduler& sched, net::Link::Config cfg)
      : sched_(sched), cfg_(cfg), created_at_(sched.now()) {}

  void set_sink(FrameSink sink) { sink_ = std::move(sink); }
  void set_bit_error_rate(double ber) { cfg_.bit_error_rate = ber; }
  void set_queue_limit(units::Bytes limit) { cfg_.queue_limit = limit; }

  void set_up(bool up) {
    if (up == up_) return;
    up_ = up;
    if (!up_) {
      if (transmitting_) cut_mid_frame_ = true;
      for (const Frame& f : queue_) {
        ++outage_drops_;
        outage_dropped_bytes_ += f.wire_bytes;
        queued_bytes_ -= f.wire_bytes;
      }
      queue_.clear();
      queue_depth_.update(sched_.now(), static_cast<double>(queued_bytes_));
    } else {
      maybe_start();
    }
  }

  bool submit(Frame f) {
    ++submitted_frames_;
    submitted_bytes_ += f.wire_bytes;
    if (!up_) {
      ++outage_drops_;
      outage_dropped_bytes_ += f.wire_bytes;
      return false;
    }
    if (units::Bytes{queued_bytes_ + f.wire_bytes} > cfg_.queue_limit) {
      ++drops_;
      dropped_bytes_ += f.wire_bytes;
      return false;
    }
    queued_bytes_ += f.wire_bytes;
    queue_depth_.update(sched_.now(), static_cast<double>(queued_bytes_));
    queue_.push_back(std::move(f));
    maybe_start();
    return true;
  }

  // The wire ends of the frame on the wire and of each queued frame, were
  // nothing to interfere: where a schedule puts its tie-breaking actions.
  std::vector<SimTime> planned_wire_ends() const {
    std::vector<SimTime> ends;
    SimTime t = transmitting_ ? tx_end_ : sched_.now();
    if (transmitting_) ends.push_back(t);
    for (const Frame& f : queue_) {
      t = t + wire_time(f.wire_bytes);
      ends.push_back(t);
    }
    return ends;
  }

  std::uint64_t events() const { return events_; }
  std::uint64_t queue_bytes() const { return queued_bytes_; }
  std::size_t queue_frames() const { return queue_.size(); }
  std::uint64_t submitted_frames() const { return submitted_frames_; }
  std::uint64_t submitted_bytes() const { return submitted_bytes_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }
  std::uint64_t corrupted_frames() const { return corrupted_; }
  std::uint64_t outage_drops() const { return outage_drops_; }
  std::uint64_t outage_dropped_bytes() const { return outage_dropped_bytes_; }
  double utilization() const {
    const SimTime span = sched_.now() - created_at_;
    if (span <= SimTime::zero()) return 0.0;
    return busy_accum_.sec() / span.sec();
  }
  double mean_queue_bytes() const {
    return queue_depth_.average(sched_.now());
  }

 private:
  SimTime wire_time(std::uint64_t bytes) const {
    return units::transmission_time(units::Bytes{bytes}, cfg_.rate) +
           cfg_.per_frame_overhead;
  }

  void maybe_start() {
    if (transmitting_ || queue_.empty()) return;
    transmitting_ = true;
    Frame f = std::move(queue_.front());
    queue_.pop_front();
    const SimTime tx = wire_time(f.wire_bytes);
    busy_accum_ += tx;
    tx_end_ = sched_.now() + tx;
    sched_.schedule_after(tx, [this, f = std::move(f)]() mutable {
      ++events_;
      transmitting_ = false;
      queued_bytes_ -= f.wire_bytes;
      queue_depth_.update(sched_.now(), static_cast<double>(queued_bytes_));
      if (cut_mid_frame_) {
        cut_mid_frame_ = false;
        ++outage_drops_;
        outage_dropped_bytes_ += f.wire_bytes;
        maybe_start();
        return;
      }
      ++frames_sent_;
      bytes_sent_ += f.wire_bytes;
      if (cfg_.bit_error_rate > 0.0) {
        const double bits = static_cast<double>(f.wire_bytes) * 8.0;
        const double p_ok = std::exp(bits * std::log1p(-cfg_.bit_error_rate));
        if (!rng_.bernoulli(p_ok)) {
          ++corrupted_;
          maybe_start();
          return;
        }
      }
      if (sink_) {
        sched_.schedule_after(cfg_.propagation,
                              [this, f = std::move(f)]() mutable {
                                ++events_;
                                sink_(std::move(f));
                              });
      }
      maybe_start();
    });
  }

  des::Scheduler& sched_;
  net::Link::Config cfg_;
  FrameSink sink_;
  std::deque<Frame> queue_;
  std::uint64_t queued_bytes_ = 0;
  bool transmitting_ = false;
  bool up_ = true;
  bool cut_mid_frame_ = false;
  SimTime tx_end_;
  std::uint64_t events_ = 0;
  std::uint64_t submitted_frames_ = 0;
  std::uint64_t submitted_bytes_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t outage_drops_ = 0;
  std::uint64_t outage_dropped_bytes_ = 0;
  des::Rng rng_{0x6c696e6bULL};  // net::Link's per-link error stream
  SimTime busy_accum_ = SimTime::zero();
  SimTime created_at_ = SimTime::zero();
  des::TimeWeighted queue_depth_;
};

}  // namespace twoevent

::testing::AssertionResult same_ledgers(const Link& l,
                                        const twoevent::Link& r) {
  const auto differ = [](const char* what, auto got, auto want) {
    return ::testing::AssertionFailure()
           << what << ": " << got << ", reference " << want;
  };
#define GTW_SAME(field)                                        \
  if (l.field() != r.field()) return differ(#field, l.field(), r.field())
  GTW_SAME(submitted_frames);
  GTW_SAME(submitted_bytes);
  GTW_SAME(frames_sent);
  GTW_SAME(bytes_sent);
  GTW_SAME(drops);
  GTW_SAME(dropped_bytes);
  GTW_SAME(corrupted_frames);
  GTW_SAME(outage_drops);
  GTW_SAME(outage_dropped_bytes);
  GTW_SAME(queue_bytes);
  GTW_SAME(queue_frames);
  GTW_SAME(mean_queue_bytes);
  GTW_SAME(utilization);
#undef GTW_SAME
  return ::testing::AssertionSuccess();
}

struct Delivery {
  std::int64_t ps;
  std::uint32_t id;
  bool operator==(const Delivery& o) const {
    return ps == o.ps && id == o.id;
  }
};
void PrintTo(const Delivery& d, std::ostream* os) {
  *os << "frame " << d.id << " at " << d.ps << " ps";
}

// One seeded schedule: the link shape and about 60 actions.
void run_schedule(std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  des::Rng rng(seed);
  des::Scheduler sched;
  // 100 Mbit/s: a byte takes 80 ns, so wire ends line up with each other.
  Link::Config cfg{units::BitRate::mbps(100.0), SimTime::zero(),
                   units::Bytes{4000 + rng.uniform_int(40000)},
                   rng.bernoulli(0.2) ? SimTime::microseconds(2)
                                      : SimTime::zero()};
  if (rng.bernoulli(0.5))
    cfg.propagation = SimTime::microseconds(
        static_cast<std::int64_t>(1 + rng.uniform_int(400)));
  if (rng.bernoulli(0.3)) cfg.bit_error_rate = 5e-5;
  const bool with_sink = rng.bernoulli(0.8);

  // The reference is driven second in every action, so its
  // transmit-complete for a frame both start in one event is scheduled
  // after net::Link's delivery: each reads the other's tie order exactly.
  Link link(sched, "l", cfg);
  twoevent::Link ref(sched, cfg);
  std::vector<Delivery> got, want;
  if (with_sink) {
    link.set_sink([&](Frame f) {
      got.push_back({sched.now().ps(), f.pkt.datagram_id});
    });
    ref.set_sink([&](Frame f) {
      want.push_back({sched.now().ps(), f.pkt.datagram_id});
    });
  }

  std::uint64_t actions = 0;
  std::uint32_t next_id = 1;
  std::function<void()> act;
  // Schedules an action: at a planned wire end (the frame on the wire's,
  // or a queued frame's, whose transmit-complete is not scheduled yet) or
  // a little later than now.
  const auto follow = [&] {
    const std::vector<SimTime> ends = ref.planned_wire_ends();
    SimTime at = sched.now() + SimTime::microseconds(static_cast<std::int64_t>(
                                   rng.uniform_int(600)));
    if (!ends.empty() && rng.bernoulli(0.6))
      at = ends[static_cast<std::size_t>(rng.uniform_int(ends.size()))];
    sched.schedule_at(at, [&] { act(); });
  };
  act = [&] {
    ++actions;
    const std::uint64_t kind = rng.uniform_int(10);
    if (kind < 5) {
      Frame f;
      f.wire_bytes = static_cast<std::uint32_t>(40 + rng.uniform_int(4000));
      f.pkt.datagram_id = next_id++;
      Frame copy = f;
      const bool ok = link.submit(std::move(f));
      EXPECT_EQ(ok, ref.submit(std::move(copy)));
    } else if (kind == 5) {
      const double ber =
          rng.bernoulli(0.5)
              ? 0.0
              : 2e-5 * static_cast<double>(1 + rng.uniform_int(4));
      link.set_bit_error_rate(ber);
      ref.set_bit_error_rate(ber);
    } else if (kind == 6) {
      const units::Bytes limit{2000 + rng.uniform_int(40000)};
      link.set_queue_limit(limit);
      ref.set_queue_limit(limit);
    } else if (kind == 7) {
      link.set_up(false);
      ref.set_up(false);
      // Restore after a short outage, often before the cut frame's wire
      // end.
      sched.schedule_at(
          sched.now() + SimTime::microseconds(
                            static_cast<std::int64_t>(1 + rng.uniform_int(300))),
          [&] {
            ++actions;
            link.set_up(true);
            ref.set_up(true);
          });
    }  // else: an action that only reads
    if (actions < 60) follow();
  };
  for (int i = 0; i < 4; ++i)
    sched.schedule_at(SimTime::microseconds(
                          static_cast<std::int64_t>(rng.uniform_int(200))),
                      [&] { act(); });

  std::uint64_t seen_ref = 0, seen_actions = 0;
  while (sched.step()) {
    if (ref.events() == seen_ref && actions == seen_actions) continue;
    seen_ref = ref.events();
    seen_actions = actions;
    ASSERT_TRUE(same_ledgers(link, ref)) << "at " << sched.now().ps() << " ps";
  }
  EXPECT_TRUE(same_ledgers(link, ref));
  EXPECT_EQ(got, want);
  EXPECT_EQ(link.queue_frames(), 0u);
}

TEST(LinkReferenceTest, MatchesTheTwoEventLinkOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    run_schedule(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace gtw::net
