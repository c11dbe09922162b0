#include "net/tcp.hpp"

#include <algorithm>
#include <cassert>

namespace gtw::net {

namespace {
constexpr des::SimTime kMaxRto = des::SimTime::seconds(60.0);
}

std::uint64_t TcpConnection::ooo_bytes(const Endpoint& e) {
  std::uint64_t total = 0;
  for (const auto& [a, b] : e.ooo) total += b - a;
  return total;
}

des::TraceContext TcpConnection::ctx_for_seq(const Endpoint& e,
                                             std::uint64_t seq) {
  // messages is ordered by end_offset; the owner of `seq` is the first
  // message whose range extends past it.  Segments and stalls nest under
  // the message's own transfer span when it has one.
  for (const Message& m : e.messages)
    if (m.end_offset > seq) return des::under(m.ctx, m.span);
  return {};
}

TcpConnection::TcpConnection(Host& a, Host& b, std::uint16_t port_a,
                             std::uint16_t port_b, TcpConfig config)
    : sched_(a.scheduler()), cfg_(config) {
  ep_[0].host = &a;
  ep_[0].local_port = port_a;
  ep_[0].remote_port = port_b;
  ep_[1].host = &b;
  ep_[1].local_port = port_b;
  ep_[1].remote_port = port_a;
  for (int s = 0; s < 2; ++s) {
    ep_[s].cwnd = static_cast<double>(cfg_.initial_cwnd_segments) *
                  static_cast<double>(cfg_.mss.count());
    ep_[s].ssthresh = static_cast<double>(cfg_.recv_buffer.count());
    ep_[s].rto = cfg_.initial_rto;
    ep_[s].host->bind(IpProto::kTcp, ep_[s].local_port,
                      [this, s](const IpPacket& pkt) { on_packet(s, pkt); });
  }
}

TcpConnection::~TcpConnection() {
  for (auto& e : ep_) {
    if (e.host != nullptr) e.host->unbind(IpProto::kTcp, e.local_port);
    e.rto_timer.cancel();
    // A torn-down connection (PathTransport stall reset, test teardown)
    // retires its in-flight spans as aborted rather than leaking them.
    sched_.abort_span(e.stall_span);
    e.stall_span = 0;
    for (Message& m : e.messages) {
      sched_.abort_span(m.span);
      m.span = 0;
    }
  }
}

void TcpConnection::send(int side, units::Bytes amount, std::any data,
                         DeliveryCallback on_delivered) {
  assert(side == 0 || side == 1);
  Endpoint& e = ep_[side];
  e.snd_end += amount.count();
  e.stats.bytes_queued += amount.count();
  Message msg{e.snd_end, std::move(data), std::move(on_delivered),
              sched_.current_trace(), 0};
  if (msg.ctx.valid())
    msg.span = sched_.begin_span(msg.ctx, des::SpanPhase::kTransfer, "tcp",
                                 "msg");
  e.messages.push_back(std::move(msg));
  try_send(side);
}

std::uint64_t TcpConnection::window_bytes(const Endpoint& e,
                                          const Endpoint& peer) const {
  // The peer advertises its *remaining* buffer: the receive buffer minus
  // bytes parked out of order awaiting a hole fill (in-order data is
  // consumed by the application immediately in this model).
  const std::uint64_t buffered = ooo_bytes(peer);
  const std::uint64_t recv_buffer = cfg_.recv_buffer.count();
  const std::uint64_t advertised =
      recv_buffer > buffered ? recv_buffer - buffered : 0;
  const auto cwnd = static_cast<std::uint64_t>(e.cwnd);
  return std::min<std::uint64_t>(cwnd, advertised);
}

void TcpConnection::try_send(int side) {
  Endpoint& e = ep_[side];
  const std::uint64_t mss = cfg_.mss.count();
  const std::uint64_t window = window_bytes(e, ep_[1 - side]);
  while (e.snd_nxt < e.snd_end) {
    const std::uint64_t inflight = e.snd_nxt - e.snd_una;
    std::uint64_t room = inflight >= window ? 0 : window - inflight;
    // Persist-probe rule: the segment at snd_una is the hole the peer's
    // out-of-order backlog is waiting on, so it always fits the peer's
    // buffer.  Letting it through keeps recovery alive even when the
    // backlog has collapsed the advertised window below one MSS.
    if (room < mss && e.snd_nxt == e.snd_una) room = mss;
    const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        {mss, e.snd_end - e.snd_nxt, room}));
    if (len == 0) break;
    // Anything below the high-water mark has been on the wire before
    // (go-back-N after a timeout), so it counts as a retransmission and is
    // never timed (Karn's rule).
    send_segment(side, e.snd_nxt, len, /*retransmit=*/e.snd_nxt < e.snd_max);
    e.snd_nxt += len;
    e.snd_max = std::max(e.snd_max, e.snd_nxt);
  }
}

void TcpConnection::send_segment(int side, std::uint64_t seq,
                                 std::uint32_t len, bool retransmit) {
  Endpoint& e = ep_[side];
  IpPacket pkt;
  pkt.dst = ep_[1 - side].host->id();
  pkt.proto = IpProto::kTcp;
  pkt.src_port = e.local_port;
  pkt.dst_port = e.remote_port;
  pkt.total_bytes = len + kIpHeaderBytes + kTcpHeaderBytes;
  pkt.tcp = TcpSegHeader{seq, e.rcv_nxt, len, /*valid=*/true};
  ++e.stats.segments_sent;
  if (retransmit) ++e.stats.retransmits;

  if (!retransmit && !e.timing) {
    // Time this segment for the RTT estimate (Karn's rule: never time a
    // retransmission).
    e.timing = true;
    e.timed_seq = seq + len;
    e.timed_at = sched_.now();
  }
  // Segments (and their downstream host/link events, including the RTO
  // timer armed below) belong to the message that owns this byte range,
  // not to whichever ACK event triggered the transmission.
  if (sched_.tracing()) pkt.ctx = ctx_for_seq(e, seq);
  des::TraceScope scope(sched_, pkt.ctx);
  arm_rto(side);
  e.host->send_datagram(std::move(pkt));
}

void TcpConnection::arm_rto(int side) {
  Endpoint& e = ep_[side];
  e.rto_timer.cancel();
  e.rto_timer =
      sched_.schedule_after(e.rto, [this, side]() { on_rto(side); });
}

void TcpConnection::on_rto(int side) {
  Endpoint& e = ep_[side];
  if (e.snd_una >= e.snd_end && e.snd_una == e.snd_nxt) return;  // all done
  ++e.stats.timeouts;
  if (sched_.tracing() && e.stall_span == 0) {
    // Loss recovery begins: the connection makes no forward progress for
    // the application until the cumulative ACK passes today's high-water
    // mark.  One span covers the whole episode (back-to-back RTOs extend
    // it rather than opening new spans).
    des::TraceContext parent = ctx_for_seq(e, e.snd_una);
    if (!parent.valid()) parent = sched_.current_trace();
    e.stall_span = sched_.begin_span(parent, des::SpanPhase::kRetransmitStall,
                                     "tcp", "rto");
    e.stall_until = e.snd_max;
  }
  // Multiplicative decrease and go-back-N.
  const double mss = static_cast<double>(cfg_.mss.count());
  const double flight = static_cast<double>(e.snd_nxt - e.snd_una);
  e.ssthresh = std::max(flight / 2.0, 2.0 * mss);
  e.cwnd = mss;
  e.dupacks = 0;
  e.timing = false;  // Karn: discard the timed sample
  e.snd_nxt = e.snd_una;
  e.rto = std::min(e.rto * 2, kMaxRto);
  try_send(side);
  arm_rto(side);
}

void TcpConnection::on_packet(int side, const IpPacket& pkt) {
  if (!pkt.tcp.valid) return;
  const TcpSegHeader m = pkt.tcp;
  if (m.len > 0) process_data(side, m);
  process_ack(side, m);
}

void TcpConnection::process_data(int side, const TcpSegHeader& m) {
  Endpoint& e = ep_[side];
  const std::uint64_t seg_end = m.seq + m.len;
  if (seg_end <= e.rcv_nxt) {
    // Old duplicate; re-ACK (RFC 5681 section 4.2).
    ++e.stats.dup_segments_received;
    send_ack(side);
    return;
  }
  if (m.seq <= e.rcv_nxt) {
    e.rcv_nxt = seg_end;
    // Pull in any out-of-order data now contiguous.
    auto it = e.ooo.begin();
    while (it != e.ooo.end() && it->first <= e.rcv_nxt) {
      e.rcv_nxt = std::max(e.rcv_nxt, it->second);
      it = e.ooo.erase(it);
    }
    deliver_messages(1 - side);
    send_ack(side);
    return;
  }
  {
    // Hole: stash the interval, keeping the list sorted and merged.  Data
    // beyond the receive buffer was never admissible under the advertised
    // window (a well-behaved sender cannot reach it; a buggy one gets it
    // discarded), which bounds the out-of-order list.
    const std::uint64_t limit = e.rcv_nxt + cfg_.recv_buffer.count();
    const std::uint64_t stash_end = std::min(seg_end, limit);
    if (m.seq < limit) {
      auto pos = std::lower_bound(
          e.ooo.begin(), e.ooo.end(), std::make_pair(m.seq, stash_end));
      if (pos != e.ooo.begin() && std::prev(pos)->second >= stash_end)
        ++e.stats.dup_segments_received;  // wholly inside a buffered interval
      pos = e.ooo.insert(pos, {m.seq, stash_end});
      // Merge neighbours.
      if (pos != e.ooo.begin() && std::prev(pos)->second >= pos->first) {
        std::prev(pos)->second = std::max(std::prev(pos)->second, pos->second);
        pos = std::prev(e.ooo.erase(pos));
      }
      while (std::next(pos) != e.ooo.end() &&
             pos->second >= std::next(pos)->first) {
        pos->second = std::max(pos->second, std::next(pos)->second);
        e.ooo.erase(std::next(pos));
      }
      e.stats.max_ooo_bytes = std::max(e.stats.max_ooo_bytes, ooo_bytes(e));
    }
  }
  // Out-of-order arrival: duplicate ACK (RFC 5681).
  send_ack(side);
}

void TcpConnection::send_ack(int side) {
  Endpoint& e = ep_[side];
  IpPacket pkt;
  pkt.dst = ep_[1 - side].host->id();
  pkt.proto = IpProto::kTcp;
  pkt.src_port = e.local_port;
  pkt.dst_port = e.remote_port;
  pkt.total_bytes = kIpHeaderBytes + kTcpHeaderBytes;
  pkt.tcp = TcpSegHeader{0, e.rcv_nxt, 0, /*valid=*/true};
  ++e.stats.acks_sent;
  e.host->send_datagram(std::move(pkt));
}

void TcpConnection::process_ack(int side, const TcpSegHeader& m) {
  Endpoint& e = ep_[side];
  if (m.ack > e.snd_una) {
    e.snd_una = m.ack;
    if (e.stall_span != 0 && e.snd_una >= e.stall_until) {
      sched_.end_span(e.stall_span);
      e.stall_span = 0;
    }
    // During go-back-N an ACK can overtake the reset send point (the first
    // resent segment fills a hole and the cumulative ACK jumps past it);
    // without this snap `snd_nxt - snd_una` underflows and the sender
    // stalls until the next (doubled) RTO.
    if (e.snd_nxt < e.snd_una) e.snd_nxt = e.snd_una;
    e.stats.bytes_acked = e.snd_una;
    e.dupacks = 0;
    // RTT sample.
    if (e.timing && m.ack >= e.timed_seq) {
      const double sample = (sched_.now() - e.timed_at).sec();
      e.timing = false;
      if (e.srtt_s < 0) {
        e.srtt_s = sample;
        e.rttvar_s = sample / 2.0;
      } else {
        const double err = sample - e.srtt_s;
        e.srtt_s += 0.125 * err;
        e.rttvar_s += 0.25 * (std::abs(err) - e.rttvar_s);
      }
      const double rto_s = e.srtt_s + 4.0 * e.rttvar_s;
      e.rto = std::max(cfg_.min_rto, des::SimTime::seconds(rto_s));
    }
    // Congestion window growth.
    const double mss = static_cast<double>(cfg_.mss.count());
    if (e.cwnd < e.ssthresh) {
      e.cwnd += mss;  // slow start: +MSS per ACK
    } else {
      e.cwnd += mss * mss / e.cwnd;
    }
    e.stats.cwnd_bytes = e.cwnd;
    e.stats.srtt_ms = e.srtt_s * 1e3;
    if (e.snd_una == e.snd_nxt && e.snd_una == e.snd_end) {
      e.rto_timer.cancel();  // everything acknowledged
    } else {
      arm_rto(side);
    }
    try_send(side);
  } else if (m.ack == e.snd_una && e.snd_nxt > e.snd_una && m.len == 0) {
    // RFC 5681: only segments carrying *no data* count as duplicate ACKs;
    // the peer's data segments repeat the cumulative ACK as a side effect
    // and must not trigger fast retransmit on bidirectional transfers.
    ++e.stats.dup_acks;
    if (++e.dupacks == 3) {
      // Fast retransmit + multiplicative decrease.
      ++e.stats.fast_retransmits;
      if (sched_.tracing() && e.stall_span == 0) {
        des::TraceContext parent = ctx_for_seq(e, e.snd_una);
        if (!parent.valid()) parent = sched_.current_trace();
        e.stall_span = sched_.begin_span(
            parent, des::SpanPhase::kRetransmitStall, "tcp", "fast-rtx");
        e.stall_until = e.snd_max;
      }
      const double flight = static_cast<double>(e.snd_nxt - e.snd_una);
      e.ssthresh =
          std::max(flight / 2.0, 2.0 * static_cast<double>(cfg_.mss.count()));
      e.cwnd = e.ssthresh;
      e.timing = false;
      const std::uint32_t len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(cfg_.mss.count(), e.snd_end - e.snd_una));
      if (len > 0) send_segment(side, e.snd_una, len, /*retransmit=*/true);
    }
  }
}

void TcpConnection::deliver_messages(int sender_side) {
  Endpoint& sender = ep_[sender_side];
  const std::uint64_t received = ep_[1 - sender_side].rcv_nxt;
  while (!sender.messages.empty() &&
         sender.messages.front().end_offset <= received) {
    Message msg = std::move(sender.messages.front());
    sender.messages.pop_front();
    sched_.end_span(msg.span);
    // Delivery continuations (PathTransport reassembly, Communicator
    // dispatch) run under the message's own trace, not the trace of the
    // segment whose arrival happened to complete it.
    des::TraceScope scope(sched_, msg.ctx);
    if (msg.cb) msg.cb(msg.data, sched_.now());
  }
}

TcpConnection::Stats TcpConnection::stats(int side) const {
  Stats s = ep_[side].stats;
  s.cwnd_bytes = ep_[side].cwnd;
  s.srtt_ms = ep_[side].srtt_s * 1e3;
  s.ssthresh_bytes = ep_[side].ssthresh;
  s.rto_ms = ep_[side].rto.ms();
  return s;
}

std::uint64_t TcpConnection::bytes_received(int side) const {
  return ep_[side].rcv_nxt;
}

TcpConnection::SeqState TcpConnection::seq_state(int side) const {
  const Endpoint& e = ep_[side];
  const Endpoint& peer = ep_[1 - side];
  SeqState s;
  s.snd_una = e.snd_una;
  s.snd_nxt = e.snd_nxt;
  s.snd_max = e.snd_max;
  s.snd_end = e.snd_end;
  s.rcv_nxt = peer.rcv_nxt;
  s.ooo_buffered = ooo_bytes(peer);
  s.cwnd = e.cwnd;
  return s;
}

BulkTransferResult run_bulk_transfer(des::Scheduler& sched, Host& a, Host& b,
                                     units::Bytes amount, TcpConfig cfg,
                                     std::uint16_t port_base) {
  TcpConnection conn(a, b, port_base, static_cast<std::uint16_t>(port_base + 1),
                     cfg);
  const des::SimTime start = sched.now();
  des::SimTime done = start;
  bool finished = false;
  conn.send(0, amount, {}, [&](const std::any&, des::SimTime when) {
    done = when;
    finished = true;
  });
  sched.run();
  BulkTransferResult out;
  out.sender_stats = conn.stats(0);
  if (finished && done > start) {
    out.duration = done - start;
    out.goodput = units::per(amount.to_bits(), out.duration);
  }
  return out;
}

}  // namespace gtw::net
