// Unidirectional serializing link: the building block for ATM fibres, HiPPI
// channels and switch output ports.  A link owns a FIFO of frames, transmits
// them back-to-back at its configured rate, and delivers each frame to its
// sink after the propagation delay.  Frames that would overflow the queue
// limit are dropped whole (early packet discard, as ATM switches of the era
// did for AAL5 traffic).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

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

// Serialization model (DESIGN.md §10): one transmit-complete and one
// propagation event per frame, so every delivery timestamp is exact.
// kExact is the only value.  The enum and Link::Config::fidelity, which
// nothing reads, remain only because gtwbench/src/national_star.cpp
// assigns the field.
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

  void set_sink(FrameSink sink) { sink_ = std::move(sink); }

  // Degrade (or repair) the line at runtime — models the testbed's early
  // attenuation/timing problems and their later fix.
  void set_bit_error_rate(double ber) { cfg_.bit_error_rate = ber; }

  // Cut (or restore) the line.  While down, new submissions are refused,
  // the queue is flushed and anything mid-transmission is lost — a fibre
  // cut takes the photons with it.  Frames already past the link (in the
  // propagation stage) still arrive.
  void set_up(bool up);
  bool up() const { return up_; }

  // Shrink (or restore) the queue at runtime — a switch-buffer squeeze.
  // Already-queued frames are kept even if they exceed the new limit; the
  // limit gates admissions only.
  void set_queue_limit(units::Bytes limit) { cfg_.queue_limit = limit; }

  // Enqueue a frame; returns false (and counts a drop) on overflow.
  bool submit(Frame f);

  const std::string& name() const { return name_; }
  const Config& config() const { return cfg_; }

  std::uint64_t queue_bytes() const { return queued_bytes_; }
  std::size_t queue_frames() const { return queue_.size(); }
  // Every submit() attempt, accepted or refused.  Together with the
  // outcome counters below these close the link's conservation law
  // (check::attach_link): submitted == sent + dropped + outage-dropped +
  // still-queued, in bytes at any instant and in frames once drained.
  std::uint64_t submitted_frames() const { return submitted_frames_; }
  std::uint64_t submitted_bytes() const { return submitted_bytes_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }
  std::uint64_t corrupted_frames() const { return corrupted_; }
  std::uint64_t outage_drops() const { return outage_drops_; }
  std::uint64_t outage_dropped_bytes() const { return outage_dropped_bytes_; }
  double utilization() const;   // busy fraction since construction
  double mean_queue_bytes() const;

 private:
  void maybe_start();

  des::Scheduler& sched_;
  std::string name_;
  Config cfg_;
  FrameSink sink_;

  std::deque<Frame> queue_;
  std::uint64_t queued_bytes_ = 0;
  bool transmitting_ = false;
  bool up_ = true;

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
