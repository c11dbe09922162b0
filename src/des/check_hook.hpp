// GTW-San hook layer (DESIGN.md §12): the seam between the engine core and
// the simulation sanitizer in src/check/.
//
// The layering DAG (tools/lint/layers.toml) forbids des from including
// check — the sanitizer sits at the top of the module graph, next to the
// obs catalog it mirrors.  So the *interface* a checker implements is
// declared here, inside des, and src/check/ provides the implementation:
// the same inversion net::FrameSink uses to keep links ignorant of hosts.
//
// Hook calls are plain null-checked virtual calls present in every build,
// as SpanHook's are: a run is checked when it attaches a check::Monitor
// (check::attach_scheduler installs the hook), and unchecked when it does
// not.  With no hook installed a site costs one pointer load and branch.
//
// Rule check-side-effect (gtw-lint) bans mutating expressions inside the
// arguments of a check-hook notification: a hook must observe, never
// steer, or attached and bare runs simulate different worlds.
#pragma once

#include <cstdint>

#include "des/time.hpp"

namespace gtw::des {

class Scheduler;

// Implemented by check::SchedulerChecker (src/check/attach.hpp) and
// installed with Scheduler::set_check_hook.  Calls are synchronous, in
// event order, and must not schedule, cancel, or otherwise reach back into
// the scheduler.
//
// Lifetime as for SpanHook: a hook serves at most one scheduler at a time,
// installing it records the scheduler here, destroying the hook uninstalls
// it, and destroying the scheduler forgets the hook.  Either may die first.
struct SchedulerCheckHook {
  SchedulerCheckHook() = default;
  SchedulerCheckHook(const SchedulerCheckHook&) = delete;
  SchedulerCheckHook& operator=(const SchedulerCheckHook&) = delete;
  virtual ~SchedulerCheckHook();  // defined in des/scheduler.cpp

  // The scheduler this hook is installed on, or nullptr.
  Scheduler* installed_on() const { return installed_on_; }

  // A new event was accepted at simulated time `now` for dispatch at
  // `when`.  `when < now` is the schedule-in-past bug class the release
  // build's compiled-out assert no longer catches.
  virtual void on_schedule(SimTime when, SimTime now, std::uint64_t seq) = 0;

  // An event is about to fire; `when` values must be non-decreasing.
  virtual void on_fire(SimTime when, std::uint64_t seq) = 0;

  enum class CancelOutcome : std::uint8_t {
    kCancelled,  // live event tombstoned — the normal path
    kStale,      // slot recycled or already fired: documented no-op
    kDouble,     // second cancel of the same still-queued tombstone
  };
  virtual void on_cancel(std::uint64_t seq, CancelOutcome outcome) = 0;

 private:
  friend class Scheduler;
  Scheduler* installed_on_ = nullptr;  // maintained by Scheduler only
};

}  // namespace gtw::des
