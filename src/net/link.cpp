#include "net/link.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace gtw::net {

Link::Link(des::Scheduler& sched, std::string name, Config cfg)
    : sched_(sched), name_(std::move(name)), cfg_(cfg),
      created_at_(sched.now()) {
  assert(cfg_.rate.bps() > 0.0);
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up_) {
    // The frame being clocked out is lost even if the line is restored
    // before its wire time ends; transmit-complete drops it.
    if (transmitting_) cut_mid_frame_ = true;
    // Flush the queue: anything waiting for the wire is lost with it.
    des::SpanHook* h = sched_.span_hook();
    for (const Frame& f : queue_) {
      ++outage_drops_;
      outage_dropped_bytes_ += f.wire_bytes;
      queued_bytes_ -= f.wire_bytes;
      if (h != nullptr) h->abort_span(f.span, sched_.now());
    }
    queue_.clear();
    queue_depth_.update(sched_.now(), static_cast<double>(queued_bytes_));
  } else {
    maybe_start();
  }
}

bool Link::submit(Frame f) {
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
  if (des::SpanHook* h = sched_.span_hook();
      h != nullptr && f.pkt.ctx.valid()) {
    f.span = h->begin_span(f.pkt.ctx, des::SpanPhase::kQueueWait, "link",
                           name_.c_str(), sched_.now());
  }
  queue_.push_back(std::move(f));
  maybe_start();
  return true;
}

void Link::maybe_start() {
  if (transmitting_ || queue_.empty()) return;
  transmitting_ = true;

  Frame f = std::move(queue_.front());
  queue_.pop_front();

  des::SpanHook* h = sched_.span_hook();
  if (h != nullptr) {
    h->end_span(f.span, sched_.now());  // queue-wait over
    f.span = f.pkt.ctx.valid()
                 ? h->begin_span(f.pkt.ctx, des::SpanPhase::kSerialize,
                                 "link", name_.c_str(), sched_.now())
                 : 0;
  }
  const des::SimTime tx =
      units::transmission_time(units::Bytes{f.wire_bytes}, cfg_.rate) +
      cfg_.per_frame_overhead;
  busy_accum_ += tx;
  // Bracket the schedule with adopt(): the transmit event belongs to the
  // frame's trace, not to whichever event pulled it off the queue.
  const des::TraceContext prev =
      h != nullptr ? h->adopt(f.pkt.ctx) : des::TraceContext{};
  sched_.schedule_after(tx, [this, f = std::move(f)]() mutable {
    transmitting_ = false;
    queued_bytes_ -= f.wire_bytes;
    queue_depth_.update(sched_.now(), static_cast<double>(queued_bytes_));
    des::SpanHook* h2 = sched_.span_hook();
    if (cut_mid_frame_) {
      // The line was cut while this frame was being clocked out.  Serve
      // whatever was queued since a restore.
      cut_mid_frame_ = false;
      ++outage_drops_;
      outage_dropped_bytes_ += f.wire_bytes;
      if (h2 != nullptr) h2->abort_span(f.span, sched_.now());
      maybe_start();
      return;
    }
    ++frames_sent_;
    bytes_sent_ += f.wire_bytes;
    if (h2 != nullptr) h2->end_span(f.span, sched_.now());  // serialized
    if (cfg_.bit_error_rate > 0.0) {
      // P(frame corrupted) = 1 - (1-BER)^bits; the AAL5 CRC discards it.
      const double bits = static_cast<double>(f.wire_bytes) * 8.0;
      const double p_ok = std::exp(bits * std::log1p(-cfg_.bit_error_rate));
      if (!rng_.bernoulli(p_ok)) {
        ++corrupted_;
        maybe_start();
        return;
      }
    }
    if (sink_) {
      if (h2 != nullptr && f.pkt.ctx.valid())
        f.span = h2->begin_span(f.pkt.ctx, des::SpanPhase::kPropagate,
                                "link", name_.c_str(), sched_.now());
      sched_.schedule_after(cfg_.propagation, [this, f = std::move(f)]() mutable {
        if (des::SpanHook* h3 = sched_.span_hook(); h3 != nullptr)
          h3->end_span(f.span, sched_.now());
        f.span = 0;
        sink_(std::move(f));
      });
    }
    maybe_start();
  });
  if (h != nullptr) h->adopt(prev);
}

double Link::utilization() const {
  const des::SimTime span = sched_.now() - created_at_;
  if (span <= des::SimTime::zero()) return 0.0;
  return busy_accum_.sec() / span.sec();
}

double Link::mean_queue_bytes() const {
  return queue_depth_.average(sched_.now());
}

}  // namespace gtw::net
