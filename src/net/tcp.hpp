// TCP (Reno-style) over the simulated IP substrate.
//
// Implements the mechanisms that determine the paper's throughput figures:
// MSS derived from the path MTU, sliding window bounded by min(cwnd, peer
// receive buffer), slow start and congestion avoidance, fast retransmit on
// three duplicate ACKs, exponential-backoff RTO with Jacobson/Karn RTT
// estimation, and go-back-N recovery after timeout.  Payload bytes are
// virtual (sequence ranges); applications attach opaque data to message
// boundaries and get a callback when the receiver holds the full message.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "des/scheduler.hpp"
#include "net/host.hpp"
#include "net/units.hpp"

namespace gtw::net {

struct TcpConfig {
  units::Bytes mss =
      kMtuAtmDefault - units::Bytes{kIpHeaderBytes + kTcpHeaderBytes};
  units::Bytes recv_buffer{1u << 20};  // advertised window
  std::uint32_t initial_cwnd_segments = 2;
  des::SimTime min_rto = des::SimTime::milliseconds(200);
  des::SimTime initial_rto = des::SimTime::milliseconds(1000);
};

// A full-duplex connection between two simulated hosts.  Side 0 is the host
// passed first.  Both endpoints live in this object; "sending on side s"
// means data flows from side s to side 1-s.
class TcpConnection {
 public:
  using DeliveryCallback =
      std::function<void(const std::any& data, des::SimTime delivered_at)>;

  TcpConnection(Host& a, Host& b, std::uint16_t port_a, std::uint16_t port_b,
                TcpConfig config = {});
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Queue `amount` of application data on side `side`; `on_delivered` fires
  // (at the receiver's simulated time) once the peer holds every byte.
  void send(int side, units::Bytes amount, std::any data = {},
            DeliveryCallback on_delivered = nullptr);

  struct Stats {
    std::uint64_t bytes_queued = 0;
    std::uint64_t bytes_acked = 0;
    std::uint64_t segments_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t timeouts = 0;
    // Receive side: high-water mark of bytes buffered out of order (bounded
    // by the advertised window, which shrinks as the backlog grows), and
    // segments that arrived carrying only data the receiver already held —
    // the cost of a sender retransmitting into an occupied buffer.
    std::uint64_t max_ooo_bytes = 0;
    std::uint64_t dup_segments_received = 0;
    // Every duplicate ACK counted (fast retransmit fires on the third).
    std::uint64_t dup_acks = 0;
    double srtt_ms = -1.0;
    double cwnd_bytes = 0.0;
    double ssthresh_bytes = 0.0;
    double rto_ms = 0.0;
  };
  Stats stats(int side) const;

  // GTW-San snapshot (check::attach_tcp): the raw sequence-space and
  // window state the Reno invariants are phrased against —
  // snd_una <= snd_nxt <= snd_max <= snd_end, cwnd >= MSS, and the
  // out-of-order backlog bounded by the advertised receive buffer.
  struct SeqState {
    std::uint64_t snd_una = 0;
    std::uint64_t snd_nxt = 0;
    std::uint64_t snd_max = 0;
    std::uint64_t snd_end = 0;
    std::uint64_t rcv_nxt = 0;      // receiver side of the same direction
    std::uint64_t ooo_buffered = 0; // bytes the receiver holds out of order
    double cwnd = 0.0;
  };
  SeqState seq_state(int side) const;

  // Bytes the receiver on side `side` has accepted in order.
  std::uint64_t bytes_received(int side) const;

  const TcpConfig& config() const { return cfg_; }

 private:
  struct Message {
    std::uint64_t end_offset;
    std::any data;
    DeliveryCallback cb;
    des::TraceContext ctx;   // trace of the application send (obs)
    std::uint64_t span = 0;  // open tcp-transfer span, closed on delivery
  };

  struct Endpoint {
    Host* host = nullptr;
    std::uint16_t local_port = 0, remote_port = 0;

    // --- send state ---
    std::uint64_t snd_una = 0;   // oldest unacknowledged byte
    std::uint64_t snd_nxt = 0;   // next byte to transmit
    std::uint64_t snd_max = 0;   // highest byte ever transmitted
    std::uint64_t snd_end = 0;   // bytes queued by the application
    std::deque<Message> messages;
    double cwnd = 0.0;
    double ssthresh = 0.0;
    int dupacks = 0;
    // RTT estimation (one timed segment at a time; Karn's rule).
    bool timing = false;
    std::uint64_t timed_seq = 0;
    des::SimTime timed_at;
    double srtt_s = -1.0, rttvar_s = 0.0;
    des::SimTime rto;
    des::EventHandle rto_timer;

    // --- receive state ---
    std::uint64_t rcv_nxt = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ooo;  // sorted [a,b)

    // Open retransmit-stall span (obs): begun at the first loss signal
    // (3rd dupack or RTO), closed once the cumulative ACK passes the
    // recovery point captured in stall_until.
    std::uint64_t stall_span = 0;
    std::uint64_t stall_until = 0;

    Stats stats;
  };

  void on_packet(int side, const IpPacket& pkt);
  void process_data(int side, const TcpSegHeader& m);
  void process_ack(int side, const TcpSegHeader& m);
  void try_send(int side);
  void send_segment(int side, std::uint64_t seq, std::uint32_t len,
                    bool retransmit);
  void send_ack(int side);
  void arm_rto(int side);
  void on_rto(int side);
  void deliver_messages(int sender_side);
  std::uint64_t window_bytes(const Endpoint& e, const Endpoint& peer) const;
  static std::uint64_t ooo_bytes(const Endpoint& e);
  // Trace of the message whose byte range contains `seq` (invalid when the
  // message was already delivered or the send was untraced).
  static des::TraceContext ctx_for_seq(const Endpoint& e, std::uint64_t seq);

  des::Scheduler& sched_;
  TcpConfig cfg_;
  Endpoint ep_[2];
};

// Convenience for benchmarks: transfer `amount` from `a` to `b` on a fresh
// connection and return the achieved application goodput, running the
// scheduler until completion.
struct BulkTransferResult {
  units::BitRate goodput;
  des::SimTime duration;
  TcpConnection::Stats sender_stats;
};
BulkTransferResult run_bulk_transfer(des::Scheduler& sched, Host& a, Host& b,
                                     units::Bytes amount, TcpConfig cfg,
                                     std::uint16_t port_base = 5000);

}  // namespace gtw::net
