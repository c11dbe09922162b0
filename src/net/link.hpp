// Unidirectional serializing link: the building block for ATM fibres, HiPPI
// channels and switch output ports.  A link owns a FIFO of frames, transmits
// them back-to-back at its configured rate, and delivers each frame to its
// sink after the propagation delay.  Frames that would overflow the queue
// limit are dropped whole (early packet discard, as ATM switches of the era
// did for AAL5 traffic).
//
// One event per frame hop (DESIGN.md §10).  A frame's delivery is scheduled
// when it starts on the wire, at start + wire time + propagation (+ the
// fabric hop of a switch behind the far end, see set_sink).  A
// transmit-complete is scheduled only while another frame waits behind the
// one on the wire, to start it at the wire end.  The frame on the wire is
// retired at its wire end lazily: every entry point and const accessor first
// retires it if the run has reached that instant, so the ledgers read at
// every instant what a link with one transmit-complete event per frame
// read.  Every frame still has its own exact timestamps; nothing is batched
// and there is no second, approximate mode (the fluid mode DESIGN.md §10
// records as deleted).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "des/stats.hpp"
#include "net/packet.hpp"
#include "units/units.hpp"

namespace gtw::net {

struct Frame {
  IpPacket pkt;
  std::uint32_t wire_bytes = 0;  // bytes on the wire including L2 overhead
  std::uint32_t vc = 0;          // ATM virtual circuit id (0 = not ATM)
  HostId l2_dst = kNoHost;       // L2 next stop (HiPPI station addressing)
  // Open link-layer span riding the frame between its queue/transmit
  // events (obs::SpanTracer, DESIGN.md §13); 0 when untraced.
  std::uint64_t span = 0;
};

using FrameSink = std::function<void(Frame)>;

// Serialization model (DESIGN.md §10): every frame keeps its exact wire
// end and delivery time.  kExact is the only value.  The enum and
// Link::Config::fidelity, which nothing reads, remain only because
// gtwbench/src/national_star.cpp assigns the field.
enum class LinkFidelity : std::uint8_t { kExact };

class Link {
 public:
  struct Config {
    units::BitRate rate;                       // usable L2 line rate
    des::SimTime propagation = des::SimTime::zero();
    units::Bytes queue_limit{1 << 20};         // wire bytes admitted to queue
    des::SimTime per_frame_overhead = des::SimTime::zero();  // e.g. HiPPI connect
    // Residual bit error rate.  The testbed's OC-48 line initially showed
    // "stability problems ... related to signal attenuation and timing"
    // (paper section 2); a frame is lost with probability
    // 1-(1-BER)^bits.  0 disables corruption.
    double bit_error_rate = 0.0;
    LinkFidelity fidelity = LinkFidelity::kExact;  // see LinkFidelity
  };

  Link(des::Scheduler& sched, std::string name, Config cfg);

  // Frames leave the far end into `sink` when their propagation ends.
  // Replacing the sink keeps the fabric hop.
  void set_sink(FrameSink sink) { sink_ = std::move(sink); }
  // A switch fabric behind the far end (AtmSwitch/HippiSwitch::
  // connect_ingress): each frame reaches `sink` `hop` after its propagation
  // ends, in the same event as its delivery.
  void set_sink(FrameSink sink, des::SimTime hop) {
    sink_ = std::move(sink);
    hop_ = hop;
  }
  // The installed sink, for a test that wraps it to drop or delay frames.
  const FrameSink& sink() const { return sink_; }

  // Degrade (or repair) the line at runtime — models the testbed's early
  // attenuation/timing problems and their later fix.  A frame on the wire
  // draws at the rate in force at its wire end.
  void set_bit_error_rate(double ber) {
    advance();
    cfg_.bit_error_rate = ber;
  }

  // Cut (or restore) the line.  While down, new submissions are refused,
  // the queue is flushed and anything mid-transmission is lost — a fibre
  // cut takes the photons with it.  Frames already past the link (in the
  // propagation stage) still arrive.
  void set_up(bool up);
  bool up() const { return up_; }

  // Shrink (or restore) the queue at runtime — a switch-buffer squeeze.
  // Already-queued frames are kept even if they exceed the new limit; the
  // limit gates admissions only.
  void set_queue_limit(units::Bytes limit) {
    advance();
    cfg_.queue_limit = limit;
  }

  // Enqueue a frame; returns false (and counts a drop) on overflow.
  bool submit(Frame f);
  // submit() for a switch fabric handing on a frame that entered it at
  // `entered` (AtmSwitch, HippiSwitch).  The fabric hands it on in the
  // feeding link's delivery, an event scheduled when the frame started on
  // that link; at a tie with this link's wire end the frame is ordered as a
  // hop event scheduled at `entered` would be, after the transmit-complete
  // of a frame that started on this link before `entered`.
  bool relay(Frame f, des::SimTime entered);

  const std::string& name() const { return name_; }
  const Config& config() const { return cfg_; }

  // Wire bytes queued or on the wire: a frame leaves at its wire end.
  std::uint64_t queue_bytes() const {
    sync();
    return queued_bytes_;
  }
  // Frames waiting for the wire.
  std::size_t queue_frames() const {
    sync();
    return queue_.size();
  }
  // Every submit() attempt, accepted or refused.  Together with the
  // outcome counters below these close the link's conservation law
  // (check::attach_link): submitted == sent + dropped + outage-dropped +
  // still-queued, in bytes at any instant and in frames once drained.
  std::uint64_t submitted_frames() const { return submitted_frames_; }
  std::uint64_t submitted_bytes() const { return submitted_bytes_; }
  std::uint64_t frames_sent() const {
    sync();
    return frames_sent_;
  }
  std::uint64_t bytes_sent() const {
    sync();
    return bytes_sent_;
  }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }
  std::uint64_t corrupted_frames() const {
    sync();
    return corrupted_;
  }
  std::uint64_t outage_drops() const {
    sync();
    return outage_drops_;
  }
  std::uint64_t outage_dropped_bytes() const {
    sync();
    return outage_dropped_bytes_;
  }
  double utilization() const;   // busy fraction since construction
  double mean_queue_bytes() const;

 private:
  // The frame being clocked out.
  struct Wire {
    des::SimTime start;        // when it went on the wire
    des::SimTime end;          // its wire end
    std::uint64_t seq = 0;     // reserved when it started: its
                               // transmit-complete's place among the events
                               // at `end` (des::Scheduler::reached)
    std::uint32_t bytes = 0;
    des::TraceContext ctx;
    std::uint64_t span = 0;    // its serialize span
    des::EventHandle delivery; // cancelled when the frame is lost
    bool busy = false;         // a frame is on the wire
    bool delivers = false;     // `delivery` is pending
    bool cut = false;          // the line went down during this transmit
  };

  // Retires the frame on the wire once the run has reached its wire end.
  // Schedules nothing, so the const accessors may call it through sync():
  // they are const to their callers, but what they read is the ledger as
  // of now.  (No Link is defined const; components own theirs mutably.)
  void retire_due() {
    if (wire_.busy && sched_.reached(wire_.end, wire_.seq)) retire();
  }
  void retire();
  void sync() const { const_cast<Link*>(this)->retire_due(); }
  // What the entry points and events run first: retire_due(), then start
  // a frame that waited for the retired frame's wire end, then arm().
  void advance();
  void start(des::SimTime at);
  // Keeps a transmit-complete scheduled at the wire end, under the frame's
  // reserved seq, exactly while the frame on the wire has a frame waiting
  // behind it or no delivery of its own; one that relay() made stale is
  // cancelled.
  void arm();
  void deliver(Frame f);
  des::SimTime wire_time(units::Bytes bytes) const;

  des::Scheduler& sched_;
  std::string name_;
  Config cfg_;
  FrameSink sink_;
  des::SimTime hop_ = des::SimTime::zero();  // see set_sink

  std::deque<Frame> queue_;  // waiting for the wire
  std::uint64_t queued_bytes_ = 0;
  Wire wire_;
  des::EventHandle tc_;      // the transmit-complete, while one is pending
  std::uint64_t tc_seq_ = 0; // the reserved seq of the frame it retires
  bool tc_pending_ = false;
  bool up_ = true;
  // Propagate spans of retired traced frames not yet delivered, in frame
  // order from prop_head_.
  std::vector<std::uint64_t> prop_spans_;
  std::size_t prop_head_ = 0;

  std::uint64_t submitted_frames_ = 0;
  std::uint64_t submitted_bytes_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t outage_drops_ = 0;
  std::uint64_t outage_dropped_bytes_ = 0;
  des::Rng rng_{0x6c696e6bULL};  // per-link error stream
  des::SimTime busy_accum_ = des::SimTime::zero();
  des::SimTime created_at_ = des::SimTime::zero();
  mutable des::TimeWeighted queue_depth_;
};

}  // namespace gtw::net
