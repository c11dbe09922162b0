// MPWide-style high-performance WAN path transport (ROADMAP item 3).
//
// One logical path per site pair, carried by N parallel simulated TCP
// streams between the two front-end hosts.  A logical message is striped
// into fixed-size chunks assigned round-robin across the active streams;
// the receiver reassembles and delivers messages strictly in send order,
// so the send/deliver contract is exactly the one `Metacomputer::wan_send`
// has always offered over a single connection.  On top of the striping:
//
//   - software packet pacing: a DES-clock token bucket per stream bounds
//     each stream's injection rate, so a many-stream path does not dump
//     correlated bursts into the shared switch buffers;
//   - stalled-stream recovery (MPWide's reconnect): a stream that makes no
//     delivery progress for `chunk_timeout` is torn down and reopened on
//     fresh ports with fresh TCP state (initial RTO, slow start), and its
//     undelivered chunks are re-issued — this sidesteps the exponentially
//     backed-off RTO a long outage leaves behind on a wounded connection;
//   - an adaptive controller: every `adapt_interval` of simulated time it
//     observes goodput and TCP retransmits and retunes the active stream
//     count and the per-stream in-flight window (grow streams / shrink the
//     window under loss, re-open the window on clean intervals).
//
// The default configuration (one stream, no pacing, no timeout, no
// controller) is a pure pass-through to a single TcpConnection: the event
// sequence is identical to pre-PathTransport builds, which keeps every
// existing BENCH_*.json artifact byte-identical.
//
// Determinism: all state advances on DES events; pacing and adaptation
// derive from simulated time only, and every container iterated is ordered
// (std::map / vectors in stable order), so a run replays bit-identically.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "des/scheduler.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "units/units.hpp"

namespace gtw::meta {

class PathTransport;

// GTW-San observer (check::attach_path_transport): notified at every chunk
// arrival and every in-order message hand-off to the application, so the
// sanitizer can prove the exactly-once / strict-send-order delivery
// contract instead of trusting the reassembly bookkeeping it is checking.
// Notification-only: implementations must not call back into the path.
// Call sites are null-checked, as the span hook's are.  Lifetime as for
// des::SchedulerCheckHook: one path at a time, and either may die first.
struct PathCheckObserver {
  PathCheckObserver() = default;
  PathCheckObserver(const PathCheckObserver&) = delete;
  PathCheckObserver& operator=(const PathCheckObserver&) = delete;
  virtual ~PathCheckObserver();  // uninstalls; meta/path_transport.cpp
  PathTransport* installed_on() const { return installed_on_; }  // or null

  virtual void on_chunk(int side, std::uint64_t msg_seq, std::uint32_t idx,
                        bool duplicate) = 0;
  virtual void on_message(int side, std::uint64_t msg_seq,
                          std::uint64_t bytes) = 0;

 private:
  friend class PathTransport;
  PathTransport* installed_on_ = nullptr;  // maintained by PathTransport only
};

// Per-path transport configuration.  `streams` is the connection pool size
// (connections are opened once and reused); the controller varies the
// *active* count within [min_streams, streams].
struct PathConfig {
  int streams = 1;
  units::Bytes chunk_bytes{256u << 10};  // striping granularity
  net::TcpConfig tcp;                    // per-stream TCP parameters

  // Token-bucket pacing per stream; zero rate disables pacing.  The burst
  // allowance is clamped up to one chunk so a chunk can always depart.
  units::BitRate pace_rate = units::BitRate::bps(0.0);
  units::Bytes pace_burst{128u << 10};

  // A stream with undelivered chunks and no delivery progress for this long
  // is reset (fresh connection, chunks re-issued).  Zero disables.
  des::SimTime chunk_timeout = des::SimTime::zero();

  // Adaptation period for the stream-count/window controller.  Zero
  // disables (stream count and window stay at their configured values).
  des::SimTime adapt_interval = des::SimTime::zero();
  int min_streams = 1;

  // Upper bound on un-delivered bytes handed to any one stream's TCP
  // connection; the controller halves it under loss (floor: one chunk).
  units::Bytes stream_window{2u << 20};

  // True when the configuration degenerates to a single plain connection;
  // send() then bypasses striping entirely.
  bool passthrough() const {
    return streams == 1 && pace_rate.bps() <= 0.0 &&
           chunk_timeout == des::SimTime::zero() &&
           adapt_interval == des::SimTime::zero();
  }
};

class PathTransport {
 public:
  using DeliveredCallback = std::function<void()>;

  // Side 0 sends a->b, side 1 sends b->a (the TcpConnection convention).
  // The transport uses ports [port_base, ...): two per pooled stream, plus
  // two per stream reset.
  PathTransport(des::Scheduler& sched, net::Host& a, net::Host& b,
                std::uint16_t port_base, PathConfig cfg = {});
  ~PathTransport();

  PathTransport(const PathTransport&) = delete;
  PathTransport& operator=(const PathTransport&) = delete;

  // Queue a logical message of `amount` on `side`; `on_delivered` fires at
  // the receiver's simulated time once every chunk has arrived AND every
  // earlier message from this side has been delivered (strict send order).
  void send(int side, units::Bytes amount, DeliveredCallback on_delivered);

  // --- accounting (per sending side) ---------------------------------------
  struct Stats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t chunks = 0;
    std::uint64_t chunk_resends = 0;       // re-issued after a stream reset
    std::uint64_t duplicate_chunks = 0;    // arrived for an already-done chunk
    std::uint64_t stream_resets = 0;
    std::uint64_t paced_delays = 0;        // dispatches the bucket deferred
    std::uint64_t delivered_messages = 0;
    std::uint64_t delivered_bytes = 0;
    // Receiver side: bytes held for reassembly/reordering right now and at
    // the high-water mark.
    std::uint64_t reassembly_bytes = 0;
    std::uint64_t reassembly_peak_bytes = 0;
  };
  const Stats& stats(int side) const { return stats_[side]; }

  // Aggregate per-stream accounting; TCP counters accumulate across resets.
  struct StreamStats {
    std::uint64_t chunks = 0;
    std::uint64_t bytes = 0;
    std::uint64_t resets = 0;
    std::uint64_t tcp_retransmits = 0;
    std::uint64_t tcp_timeouts = 0;
  };
  StreamStats stream_stats(int side, int stream) const;

  // Chunk-level work still in the pipeline (check::attach_path_transport):
  // assigned-but-undispatched and handed-to-TCP-but-undelivered chunks
  // across the whole pool.  Both must be zero once the scheduler drains —
  // a nonzero count is a chunk stranded by a stall reset.
  std::size_t undispatched_chunks(int side) const;
  std::size_t outstanding_chunks(int side) const;
  // In-flight logical messages (sent, not yet handed to the application).
  std::size_t inflight_messages(int side) const {
    return messages_[side].size();
  }

  // Installs `obs` (nullptr uninstalls), moving it off any path it was
  // installed on.
  void set_check_observer(PathCheckObserver* obs);
  PathCheckObserver* check_observer() const { return check_observer_; }

  int stream_count() const { return static_cast<int>(streams_.size()); }
  int active_streams() const { return active_streams_; }
  units::Bytes stream_window() const { return stream_window_; }
  // Controller's last observed aggregate goodput for traffic sent by
  // `side` (over the last adapt interval); 0 until the controller has
  // completed an interval.
  units::BitRate goodput(int side) const { return goodput_[side]; }

  const PathConfig& config() const { return cfg_; }

 private:
  // Identifies one chunk of one in-flight message on one side.
  struct ChunkRef {
    std::uint64_t msg_seq = 0;
    std::uint32_t idx = 0;
  };
  struct Chunk {
    units::Bytes bytes{0};
    bool delivered = false;
    // Open span riding the chunk (obs): queue-wait while assigned-but-
    // undispatched, transfer while in TCP.  A stall reset aborts the
    // transfer span and reopens a queue-wait span for the re-issue.
    std::uint64_t span = 0;
  };
  struct MessageState {
    units::Bytes bytes{0};
    DeliveredCallback cb;
    std::vector<Chunk> chunks;
    std::uint32_t chunks_done = 0;
    des::TraceContext ctx;      // trace of the logical message (obs)
    bool owns_trace = false;    // minted at send(); close_trace on delivery
    std::uint64_t span = 0;     // meta transfer span, send -> in-order handoff
    std::uint64_t rx_span = 0;  // reassembly/reorder wait at the receiver
    bool complete() const {
      return chunks_done == static_cast<std::uint32_t>(chunks.size());
    }
  };
  // Send-direction state of one stream (each stream carries both sides).
  struct StreamSide {
    std::deque<ChunkRef> pending;        // assigned, not yet given to TCP
    std::vector<ChunkRef> outstanding;   // in TCP, not yet delivered
    std::uint64_t inflight_bytes = 0;
    // Token bucket (bytes); refilled from simulated elapsed time.
    double tokens = 0.0;
    des::SimTime last_refill;
    des::EventHandle pace_timer;
    // Stall watchdog.
    des::EventHandle watchdog;
    des::SimTime last_progress;
  };
  struct Stream {
    std::unique_ptr<net::TcpConnection> conn;
    StreamSide side[2];
    StreamStats stats[2];
    // TCP counters of connections discarded by earlier resets.
    std::uint64_t retired_retransmits[2] = {0, 0};
    std::uint64_t retired_timeouts[2] = {0, 0};
  };

  void open_stream(Stream& s);
  void pump(int stream, int side);
  void dispatch(int stream, int side, ChunkRef ref);
  void on_chunk_delivered(int stream, int side, ChunkRef ref);
  void deliver_ready(int side);
  void arm_watchdog(int stream, int side);
  void on_watchdog(int stream, int side);
  void reset_stream(int stream);
  void refill_tokens(StreamSide& ss);
  void arm_controller();
  void on_controller_tick();
  bool work_outstanding() const;
  std::uint64_t total_retransmits() const;

  des::Scheduler& sched_;
  net::Host* host_a_;
  net::Host* host_b_;
  PathConfig cfg_;
  std::uint16_t next_port_;

  std::vector<Stream> streams_;
  int active_streams_ = 1;
  units::Bytes stream_window_{0};
  int rr_cursor_[2] = {0, 0};

  // Per sending side: in-flight messages by sequence number and the next
  // sequence the receiver may deliver (strict send order).
  std::map<std::uint64_t, MessageState> messages_[2];
  std::uint64_t next_send_seq_[2] = {0, 0};
  std::uint64_t next_deliver_seq_[2] = {0, 0};

  Stats stats_[2];

  // Adaptive controller state.
  des::EventHandle adapt_timer_;
  bool adapt_armed_ = false;
  std::uint64_t last_delivered_bytes_[2] = {0, 0};
  std::uint64_t last_retransmits_ = 0;
  int clean_intervals_ = 0;
  units::BitRate goodput_[2] = {units::BitRate::bps(0.0),
                                units::BitRate::bps(0.0)};
  PathCheckObserver* check_observer_ = nullptr;
};

}  // namespace gtw::meta
