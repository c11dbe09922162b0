#include "meta/path_transport.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gtw::meta {

PathTransport::PathTransport(des::Scheduler& sched, net::Host& a, net::Host& b,
                             std::uint16_t port_base, PathConfig cfg)
    : sched_(sched), host_a_(&a), host_b_(&b), cfg_(cfg),
      next_port_(port_base) {
  if (cfg_.streams < 1)
    throw std::invalid_argument("PathTransport: streams must be >= 1");
  if (cfg_.chunk_bytes.count() == 0)
    throw std::invalid_argument("PathTransport: chunk_bytes must be > 0");
  cfg_.min_streams = std::clamp(cfg_.min_streams, 1, cfg_.streams);
  active_streams_ = cfg_.streams;
  stream_window_ = std::max(cfg_.stream_window, cfg_.chunk_bytes);
  streams_.resize(static_cast<std::size_t>(cfg_.streams));
  for (Stream& s : streams_) open_stream(s);
}

PathTransport::~PathTransport() {
  set_check_observer(nullptr);
  des::SpanHook* h = sched_.span_hook();
  if (h == nullptr) return;
  // Messages still in flight at teardown retire their spans as aborted and
  // their traces as torn down; nothing may leak into the tracer's census.
  for (int side = 0; side < 2; ++side) {
    for (auto& [seq, msg] : messages_[side]) {
      for (Chunk& c : msg.chunks) h->abort_span(c.span, sched_.now());
      h->abort_span(msg.rx_span, sched_.now());
      h->abort_span(msg.span, sched_.now());
      if (msg.owns_trace) h->abort_trace(msg.ctx, "teardown", sched_.now());
    }
  }
}

PathCheckObserver::~PathCheckObserver() {
  if (installed_on_ != nullptr) installed_on_->set_check_observer(nullptr);
}

void PathTransport::set_check_observer(PathCheckObserver* obs) {
  if (check_observer_ != nullptr) check_observer_->installed_on_ = nullptr;
  if (obs != nullptr && obs->installed_on_ != nullptr)
    obs->installed_on_->check_observer_ = nullptr;
  check_observer_ = obs;
  if (obs != nullptr) obs->installed_on_ = this;
}

void PathTransport::open_stream(Stream& s) {
  const std::uint16_t pa = next_port_;
  const std::uint16_t pb = static_cast<std::uint16_t>(next_port_ + 1);
  next_port_ = static_cast<std::uint16_t>(next_port_ + 2);
  s.conn = std::make_unique<net::TcpConnection>(*host_a_, *host_b_, pa, pb,
                                                cfg_.tcp);
  for (int side = 0; side < 2; ++side) {
    StreamSide& ss = s.side[side];
    ss.tokens = static_cast<double>(
        std::max(cfg_.pace_burst, cfg_.chunk_bytes).count());
    ss.last_refill = sched_.now();
  }
}

void PathTransport::send(int side, units::Bytes amount,
                         DeliveredCallback on_delivered) {
  assert(side == 0 || side == 1);
  Stats& st = stats_[side];
  ++st.messages;
  st.bytes += amount.count();

  // Causal trace for the logical message: inherit the running event's
  // context, or mint a fresh root when this send is a workload origin.
  des::SpanHook* h = sched_.span_hook();
  des::TraceContext ctx;
  bool minted = false;
  if (h != nullptr) {
    ctx = h->current();
    if (!ctx.valid()) {
      ctx = h->mint("meta.path", sched_.now());
      minted = true;
    }
  }

  if (cfg_.passthrough()) {
    // Single plain connection: hand the whole message straight to TCP so
    // the event sequence matches a bare TcpConnection exactly.
    ++st.chunks;
    streams_[0].stats[side].chunks += 1;
    streams_[0].stats[side].bytes += amount.count();
    std::uint64_t span = 0;
    des::TraceContext prev;
    if (h != nullptr && ctx.valid()) {
      span = h->begin_span(ctx, des::SpanPhase::kTransfer, "meta", "msg",
                           sched_.now());
      prev = h->adopt(des::under(ctx, span));
    }
    streams_[0].conn->send(
        side, amount, {},
        [this, side, amount, span, ctx, minted,
         cb = std::move(on_delivered)](const std::any&, des::SimTime) {
          Stats& sst = stats_[side];
          ++sst.delivered_messages;
          sst.delivered_bytes += amount.count();
          // Passthrough has no striping sequence; deliveries are TCP-ordered
          // by construction, so the delivery count doubles as the msg seq.
          if (check_observer_ != nullptr)
            check_observer_->on_message(side, sst.delivered_messages - 1,
                                        amount.count());
          if (des::SpanHook* h2 = sched_.span_hook(); h2 != nullptr) {
            h2->end_span(span, sched_.now());
            if (cb) cb();
            if (minted) h2->close_trace(ctx, sched_.now());
          } else {
            if (cb) cb();
          }
        });
    if (h != nullptr && ctx.valid()) h->adopt(prev);
    return;
  }

  const std::uint64_t seq = next_send_seq_[side]++;
  MessageState& msg = messages_[side][seq];
  msg.bytes = amount;
  msg.cb = std::move(on_delivered);
  msg.ctx = ctx;
  msg.owns_trace = minted;
  if (h != nullptr && ctx.valid())
    msg.span = h->begin_span(ctx, des::SpanPhase::kTransfer, "meta", "msg",
                             sched_.now());
  // Stripe into chunks; a message no larger than one chunk stays whole
  // (degenerate single-chunk stripe), and a zero-byte message still costs
  // one zero-length chunk so ordering and delivery semantics hold.
  std::uint64_t remaining = amount.count();
  do {
    const std::uint64_t take = std::min<std::uint64_t>(
        remaining, cfg_.chunk_bytes.count());
    msg.chunks.push_back(Chunk{units::Bytes{take}, false});
    remaining -= take;
  } while (remaining > 0);

  for (std::uint32_t i = 0; i < msg.chunks.size(); ++i) {
    if (h != nullptr && msg.ctx.valid())
      msg.chunks[i].span =
          h->begin_span(des::under(msg.ctx, msg.span),
                        des::SpanPhase::kQueueWait, "meta", "chunk",
                        sched_.now());
    const int target = rr_cursor_[side] % active_streams_;
    rr_cursor_[side] = (rr_cursor_[side] + 1) % active_streams_;
    streams_[static_cast<std::size_t>(target)].side[side].pending.push_back(
        ChunkRef{seq, i});
  }
  for (int i = 0; i < active_streams_; ++i) pump(i, side);
  arm_controller();
}

void PathTransport::refill_tokens(StreamSide& ss) {
  if (cfg_.pace_rate.bps() <= 0.0) return;
  const double burst = static_cast<double>(
      std::max(cfg_.pace_burst, cfg_.chunk_bytes).count());
  const double elapsed = (sched_.now() - ss.last_refill).sec();
  ss.last_refill = sched_.now();
  ss.tokens = std::min(burst,
                       ss.tokens + elapsed * cfg_.pace_rate.bps() / 8.0);
}

void PathTransport::pump(int stream, int side) {
  Stream& s = streams_[static_cast<std::size_t>(stream)];
  StreamSide& ss = s.side[side];
  refill_tokens(ss);
  while (!ss.pending.empty()) {
    const ChunkRef ref = ss.pending.front();
    const auto it = messages_[side].find(ref.msg_seq);
    if (it == messages_[side].end()) {  // message already fully delivered
      ss.pending.pop_front();
      continue;
    }
    const units::Bytes bytes = it->second.chunks[ref.idx].bytes;
    if (ss.inflight_bytes + bytes.count() > stream_window_.count() &&
        ss.inflight_bytes > 0)
      break;  // window full; next delivery re-pumps
    if (cfg_.pace_rate.bps() > 0.0 &&
        ss.tokens < static_cast<double>(bytes.count())) {
      // Token deficit: wake exactly when the bucket will cover this chunk.
      if (!ss.pace_timer.pending()) {
        ++stats_[side].paced_delays;
        const double deficit =
            static_cast<double>(bytes.count()) - ss.tokens;
        const des::SimTime wait =
            des::SimTime::seconds(deficit * 8.0 / cfg_.pace_rate.bps());
        ss.pace_timer = sched_.schedule_after(
            wait, [this, stream, side]() { pump(stream, side); });
      }
      break;
    }
    ss.pending.pop_front();
    if (cfg_.pace_rate.bps() > 0.0)
      ss.tokens -= static_cast<double>(bytes.count());
    dispatch(stream, side, ref);
  }
}

void PathTransport::dispatch(int stream, int side, ChunkRef ref) {
  Stream& s = streams_[static_cast<std::size_t>(stream)];
  StreamSide& ss = s.side[side];
  MessageState& msg = messages_[side][ref.msg_seq];
  Chunk& chunk = msg.chunks[ref.idx];
  const units::Bytes bytes = chunk.bytes;
  if (ss.outstanding.empty()) ss.last_progress = sched_.now();
  ss.outstanding.push_back(ref);
  ss.inflight_bytes += bytes.count();
  ++stats_[side].chunks;
  s.stats[side].chunks += 1;
  s.stats[side].bytes += bytes.count();
  des::SpanHook* h = sched_.span_hook();
  const bool traced = h != nullptr && msg.ctx.valid();
  des::TraceContext prev;
  if (traced) {
    // Striping queue-wait ends here; the chunk rides its TCP stream under
    // a transfer span and under the message's own trace.
    h->end_span(chunk.span, sched_.now());
    chunk.span = h->begin_span(des::under(msg.ctx, msg.span),
                               des::SpanPhase::kTransfer, "meta", "chunk",
                               sched_.now());
    prev = h->adopt(des::under(msg.ctx, chunk.span));
  }
  s.conn->send(side, bytes, {},
               [this, stream, side, ref](const std::any&, des::SimTime) {
                 on_chunk_delivered(stream, side, ref);
               });
  if (traced) h->adopt(prev);
  arm_watchdog(stream, side);
}

void PathTransport::on_chunk_delivered(int stream, int side, ChunkRef ref) {
  Stream& s = streams_[static_cast<std::size_t>(stream)];
  StreamSide& ss = s.side[side];
  Stats& st = stats_[side];

  const auto mit = messages_[side].find(ref.msg_seq);
  if (mit == messages_[side].end() ||
      mit->second.chunks[ref.idx].delivered) {
    ++st.duplicate_chunks;
    if (check_observer_ != nullptr)
      check_observer_->on_chunk(side, ref.msg_seq, ref.idx,
                                /*duplicate=*/true);
    return;
  }
  Chunk& chunk = mit->second.chunks[ref.idx];
  chunk.delivered = true;
  ++mit->second.chunks_done;
  if (check_observer_ != nullptr)
    check_observer_->on_chunk(side, ref.msg_seq, ref.idx, /*duplicate=*/false);
  if (des::SpanHook* h = sched_.span_hook(); h != nullptr) {
    h->end_span(chunk.span, sched_.now());
    chunk.span = 0;
    // First chunk to land opens the reassembly/reorder wait: the receiver
    // holds partial data until the stripe completes and every earlier
    // message has gone up.
    MessageState& msg = mit->second;
    if (msg.ctx.valid() && msg.rx_span == 0)
      msg.rx_span = h->begin_span(des::under(msg.ctx, msg.span),
                                  des::SpanPhase::kReassemblyWait, "meta",
                                  "reorder", sched_.now());
  }

  const auto out = std::find_if(
      ss.outstanding.begin(), ss.outstanding.end(), [&](const ChunkRef& r) {
        return r.msg_seq == ref.msg_seq && r.idx == ref.idx;
      });
  if (out != ss.outstanding.end()) {
    ss.inflight_bytes -= chunk.bytes.count();
    ss.outstanding.erase(out);
  }
  ss.last_progress = sched_.now();

  st.reassembly_bytes += chunk.bytes.count();
  st.reassembly_peak_bytes =
      std::max(st.reassembly_peak_bytes, st.reassembly_bytes);

  deliver_ready(side);
  pump(stream, side);
}

void PathTransport::deliver_ready(int side) {
  Stats& st = stats_[side];
  auto it = messages_[side].find(next_deliver_seq_[side]);
  while (it != messages_[side].end() && it->second.complete()) {
    MessageState msg = std::move(it->second);
    messages_[side].erase(it);
    ++next_deliver_seq_[side];
    st.reassembly_bytes -= msg.bytes.count();
    ++st.delivered_messages;
    st.delivered_bytes += msg.bytes.count();
    if (check_observer_ != nullptr)
      check_observer_->on_message(side, next_deliver_seq_[side] - 1,
                                  msg.bytes.count());
    des::SpanHook* h = sched_.span_hook();
    des::TraceContext prev;
    if (h != nullptr) {
      h->end_span(msg.rx_span, sched_.now());
      h->end_span(msg.span, sched_.now());
      prev = h->adopt(msg.ctx);
    }
    if (msg.cb) msg.cb();
    if (h != nullptr) {
      h->adopt(prev);
      if (msg.owns_trace) h->close_trace(msg.ctx, sched_.now());
    }
    it = messages_[side].find(next_deliver_seq_[side]);
  }
}

void PathTransport::arm_watchdog(int stream, int side) {
  if (cfg_.chunk_timeout == des::SimTime::zero()) return;
  StreamSide& ss = streams_[static_cast<std::size_t>(stream)].side[side];
  if (ss.watchdog.pending() || ss.outstanding.empty()) return;
  ss.watchdog = sched_.schedule_after(
      cfg_.chunk_timeout, [this, stream, side]() { on_watchdog(stream, side); });
}

void PathTransport::on_watchdog(int stream, int side) {
  StreamSide& ss = streams_[static_cast<std::size_t>(stream)].side[side];
  if (ss.outstanding.empty()) return;  // drained; re-armed on next dispatch
  const des::SimTime idle = sched_.now() - ss.last_progress;
  if (idle < cfg_.chunk_timeout) {
    // Progress since arming: sleep out the remainder.
    ss.watchdog = sched_.schedule_after(
        cfg_.chunk_timeout - idle,
        [this, stream, side]() { on_watchdog(stream, side); });
    return;
  }
  reset_stream(stream);
}

void PathTransport::reset_stream(int stream) {
  Stream& s = streams_[static_cast<std::size_t>(stream)];
  // Fold the dying connection's TCP counters into the retired totals so
  // stream_stats stays monotone across resets.
  for (int side = 0; side < 2; ++side) {
    const net::TcpConnection::Stats cs = s.conn->stats(side);
    s.retired_retransmits[side] += cs.retransmits;
    s.retired_timeouts[side] += cs.timeouts;
    s.stats[side].resets += 1;
    ++stats_[side].stream_resets;
  }
  // Reclaim undelivered chunks (both directions) for re-issue, in stable
  // (message, chunk) order, ahead of anything not yet dispatched.
  for (int side = 0; side < 2; ++side) {
    StreamSide& ss = s.side[side];
    ss.watchdog.cancel();
    ss.pace_timer.cancel();
    std::vector<ChunkRef> redo = std::move(ss.outstanding);
    ss.outstanding.clear();
    ss.inflight_bytes = 0;
    std::sort(redo.begin(), redo.end(),
              [](const ChunkRef& a, const ChunkRef& b) {
                return a.msg_seq != b.msg_seq ? a.msg_seq < b.msg_seq
                                              : a.idx < b.idx;
              });
    stats_[side].chunk_resends += redo.size();
    if (des::SpanHook* h = sched_.span_hook(); h != nullptr) {
      // A stranded chunk's transfer died with the connection: retire its
      // span as aborted and restart the clock as queue-wait for the
      // re-issue, so the trace shows the reset instead of one long blur.
      for (const ChunkRef& ref : redo) {
        auto mit = messages_[side].find(ref.msg_seq);
        if (mit == messages_[side].end()) continue;
        Chunk& c = mit->second.chunks[ref.idx];
        h->abort_span(c.span, sched_.now());
        c.span = 0;
        if (mit->second.ctx.valid())
          c.span =
              h->begin_span(des::under(mit->second.ctx, mit->second.span),
                            des::SpanPhase::kQueueWait, "meta", "chunk",
                            sched_.now());
      }
    }
    for (auto rit = redo.rbegin(); rit != redo.rend(); ++rit)
      ss.pending.push_front(*rit);
  }
  // Tear down and reopen: the old connection's in-flight frames land on
  // now-unbound ports and vanish, and the replacement starts with fresh
  // slow-start/RTO state instead of an exponentially backed-off timer.
  s.conn.reset();
  open_stream(s);
  for (int side = 0; side < 2; ++side) pump(stream, side);
}

std::size_t PathTransport::undispatched_chunks(int side) const {
  // Refs to already-delivered messages linger in pending until the stream
  // is next pumped (pump() skips them lazily); only live work counts.
  std::size_t n = 0;
  for (const Stream& s : streams_)
    for (const ChunkRef& ref : s.side[side].pending)
      if (messages_[side].find(ref.msg_seq) != messages_[side].end()) ++n;
  return n;
}

std::size_t PathTransport::outstanding_chunks(int side) const {
  std::size_t n = 0;
  for (const Stream& s : streams_) n += s.side[side].outstanding.size();
  return n;
}

bool PathTransport::work_outstanding() const {
  for (const Stream& s : streams_)
    for (int side = 0; side < 2; ++side)
      if (!s.side[side].pending.empty() || !s.side[side].outstanding.empty())
        return true;
  return false;
}

std::uint64_t PathTransport::total_retransmits() const {
  std::uint64_t total = 0;
  for (const Stream& s : streams_)
    for (int side = 0; side < 2; ++side) {
      total += s.retired_retransmits[side];
      total += s.conn->stats(side).retransmits;
    }
  return total;
}

void PathTransport::arm_controller() {
  if (cfg_.adapt_interval == des::SimTime::zero() || adapt_armed_) return;
  adapt_armed_ = true;
  adapt_timer_ = sched_.schedule_after(cfg_.adapt_interval,
                                       [this]() { on_controller_tick(); });
}

void PathTransport::on_controller_tick() {
  adapt_armed_ = false;
  const double interval_s = cfg_.adapt_interval.sec();
  for (int side = 0; side < 2; ++side) {
    const std::uint64_t delivered = stats_[side].delivered_bytes;
    goodput_[side] = units::BitRate::bps(
        static_cast<double>(delivered - last_delivered_bytes_[side]) * 8.0 /
        interval_s);
    last_delivered_bytes_[side] = delivered;
  }
  const std::uint64_t retx = total_retransmits();
  const std::uint64_t retx_delta = retx - last_retransmits_;
  last_retransmits_ = retx;

  if (retx_delta > 0) {
    // Loss observed: spread the load over one more stream (aggregate
    // congestion window recovers N times faster) and shrink each stream's
    // in-flight allowance so resets stay cheap.
    clean_intervals_ = 0;
    active_streams_ = std::min(active_streams_ + 1, cfg_.streams);
    stream_window_ = std::max(stream_window_ / 2, cfg_.chunk_bytes);
  } else {
    // Clean interval: re-open the window multiplicatively; after a few
    // consecutive clean intervals release surplus streams back to the pool
    // (a single healthy stream saturates the path by itself).
    stream_window_ = std::min(
        stream_window_ * 2, std::max(cfg_.stream_window, cfg_.chunk_bytes));
    if (++clean_intervals_ >= 3 && active_streams_ > cfg_.min_streams) {
      --active_streams_;
      clean_intervals_ = 0;
    }
  }
  // Keep ticking only while there is work; the next send() re-arms an idle
  // controller, so a finished simulation can drain its event queue.
  if (work_outstanding()) arm_controller();
}

PathTransport::StreamStats PathTransport::stream_stats(int side,
                                                       int stream) const {
  const Stream& s = streams_.at(static_cast<std::size_t>(stream));
  StreamStats out = s.stats[side];
  const net::TcpConnection::Stats cs = s.conn->stats(side);
  out.tcp_retransmits = s.retired_retransmits[side] + cs.retransmits;
  out.tcp_timeouts = s.retired_timeouts[side] + cs.timeouts;
  return out;
}

}  // namespace gtw::meta
