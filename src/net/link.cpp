#include "net/link.hpp"

#include <cassert>
#include <cmath>
#include <cstddef>
#include <utility>

namespace gtw::net {

Link::Link(des::Scheduler& sched, std::string name, Config cfg)
    : sched_(sched), name_(std::move(name)), cfg_(cfg),
      created_at_(sched.now()) {
  assert(cfg_.rate.bps() > 0.0);
}

des::SimTime Link::wire_time(units::Bytes bytes) const {
  return units::transmission_time(bytes, cfg_.rate) + cfg_.per_frame_overhead;
}

void Link::set_up(bool up) {
  advance();
  if (up == up_) return;
  up_ = up;
  if (!up_) {
    // The frame being clocked out is lost even if the line is restored
    // before its wire time ends; it is retired into the outage ledger at
    // its wire end.
    if (wire_.busy) {
      wire_.cut = true;
      wire_.delivery.cancel();
      wire_.delivers = false;
    }
    // Flush the queue: anything waiting for the wire is lost with it.
    for (const Frame& f : queue_) {
      ++outage_drops_;
      outage_dropped_bytes_ += f.wire_bytes;
      queued_bytes_ -= f.wire_bytes;
      sched_.abort_span(f.span);
    }
    queue_.clear();
    queue_depth_.update(sched_.now(), static_cast<double>(queued_bytes_));
  }
  arm();
}

bool Link::submit(Frame f) {
  advance();
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
  if (f.pkt.ctx.valid())
    f.span = sched_.begin_span(f.pkt.ctx, des::SpanPhase::kQueueWait, "link",
                               name_.c_str());
  queue_.push_back(std::move(f));
  if (!wire_.busy) start(sched_.now());
  arm();
  return true;
}

void Link::advance() {
  retire_due();
  if (!wire_.busy && !queue_.empty()) start(wire_.end);
  arm();
}

bool Link::relay(Frame f, des::SimTime entered) {
  if (wire_.busy && wire_.end == sched_.now() && wire_.start < entered)
    retire();
  return submit(std::move(f));
}

void Link::retire() {
  wire_.busy = false;
  queued_bytes_ -= wire_.bytes;
  queue_depth_.update(wire_.end, static_cast<double>(queued_bytes_));
  if (wire_.cut) {
    ++outage_drops_;
    outage_dropped_bytes_ += wire_.bytes;
    sched_.abort_span(wire_.span, wire_.end);
    return;
  }
  ++frames_sent_;
  bytes_sent_ += wire_.bytes;
  sched_.end_span(wire_.span, wire_.end);  // serialized
  if (cfg_.bit_error_rate > 0.0) {
    // P(frame corrupted) = 1 - (1-BER)^bits; the AAL5 CRC discards it.
    const double bits = static_cast<double>(wire_.bytes) * 8.0;
    const double p_ok = std::exp(bits * std::log1p(-cfg_.bit_error_rate));
    if (!rng_.bernoulli(p_ok)) {
      ++corrupted_;
      wire_.delivery.cancel();
      wire_.delivers = false;
      return;
    }
  }
  // Opened here, before any later span of this link: at a begin-time tie
  // the budget gives the instant to the higher span id, so the next
  // frame's serialize span must outrank this one (DESIGN.md §13).
  if (wire_.delivers && wire_.ctx.valid())
    prop_spans_.push_back(sched_.begin_span(
        wire_.ctx, des::SpanPhase::kPropagate, "link", name_.c_str(),
        wire_.end));
}

void Link::start(des::SimTime at) {
  Frame f = std::move(queue_.front());
  queue_.pop_front();

  sched_.end_span(f.span, at);  // queue-wait over
  f.span = f.pkt.ctx.valid()
               ? sched_.begin_span(f.pkt.ctx, des::SpanPhase::kSerialize,
                                   "link", name_.c_str(), at)
               : 0;
  const des::SimTime tx = wire_time(units::Bytes{f.wire_bytes});
  busy_accum_ += tx;
  wire_.start = at;
  wire_.end = at + tx;
  wire_.seq = sched_.reserve_seq();
  wire_.bytes = f.wire_bytes;
  wire_.ctx = f.pkt.ctx;
  wire_.span = f.span;
  wire_.busy = true;
  wire_.cut = false;
  wire_.delivers = static_cast<bool>(sink_);
  wire_.delivery = {};
  if (!wire_.delivers) return;
  // The delivery belongs to the frame's trace, not to whichever event put
  // it on the wire.
  des::TraceScope scope(sched_, f.pkt.ctx);
  wire_.delivery =
      sched_.schedule_at(wire_.end + cfg_.propagation + hop_,
                         [this, f = std::move(f)]() mutable {
                           deliver(std::move(f));
                         });
}

void Link::arm() {
  const bool needed = wire_.busy && (!queue_.empty() || !wire_.delivers);
  if (tc_pending_) {
    if (needed && tc_seq_ == wire_.seq) return;
    tc_.cancel();
    tc_pending_ = false;
  }
  if (!needed) return;
  tc_pending_ = true;
  tc_seq_ = wire_.seq;
  des::TraceScope scope(sched_, wire_.ctx);
  tc_ = sched_.schedule_at(wire_.end, wire_.seq, [this] {
    tc_pending_ = false;
    advance();
  });
}

void Link::deliver(Frame f) {
  if (wire_.busy && wire_.delivers && !wire_.delivery.pending()) {
    // This is the delivery of the frame still on the wire: at zero
    // propagation it sits where the frame's transmit-complete would, so it
    // retires the frame itself, and a corrupted frame goes no further.
    retire_due();
    if (!wire_.delivers) {
      advance();
      return;
    }
  }
  advance();
  if (f.pkt.ctx.valid()) {
    const std::uint64_t span = prop_spans_[prop_head_++];
    if (2 * prop_head_ >= prop_spans_.size()) {  // keep the FIFO compact
      prop_spans_.erase(prop_spans_.begin(),
                        prop_spans_.begin() +
                            static_cast<std::ptrdiff_t>(prop_head_));
      prop_head_ = 0;
    }
    sched_.end_span(span, sched_.now() - hop_);
  }
  f.span = 0;
  sink_(std::move(f));
}

double Link::utilization() const {
  sync();
  const des::SimTime span = sched_.now() - created_at_;
  if (span <= des::SimTime::zero()) return 0.0;
  return busy_accum_.sec() / span.sec();
}

double Link::mean_queue_bytes() const {
  sync();
  return queue_depth_.average(sched_.now());
}

}  // namespace gtw::net
