// Serialized host-CPU model.  Protocol processing on 1999-era machines is a
// first-order bottleneck — the paper attributes the 260 Mbit/s T3E<->SP2
// ceiling to the microchannel I/O of the SP2 nodes, and the MTU sensitivity
// of HiPPI TCP to per-packet overhead.  Each packet charges a fixed cost
// plus a per-byte cost against a single FIFO processor.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "des/action.hpp"
#include "des/scheduler.hpp"

namespace gtw::net {

class CpuResource {
 public:
  CpuResource(des::Scheduler& sched, std::string name)
      : sched_(sched), name_(std::move(name)), created_at_(sched.now()) {}

  // Run `done` after `cost` of exclusive CPU time, queued FIFO behind any
  // work already accepted.
  void execute(des::SimTime cost, des::Action done);

  double utilization() const;
  const std::string& name() const { return name_; }

 private:
  void maybe_start();

  // Jobs park here until their completion event fires; the event itself
  // captures only `this`, so it always fits the scheduler's inline record.
  // Each job remembers the trace context it was submitted under: with the
  // CPU busy, the completion event for job N is scheduled from job N-1's
  // completion, so context must ride the queue, not the event.
  struct Job {
    des::SimTime cost;
    des::Action done;
    des::TraceContext ctx;
  };

  des::Scheduler& sched_;
  std::string name_;
  std::deque<Job> queue_;
  bool busy_ = false;
  des::SimTime busy_accum_ = des::SimTime::zero();
  des::SimTime created_at_;
};

}  // namespace gtw::net
