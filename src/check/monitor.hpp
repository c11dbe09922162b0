// GTW-San core (DESIGN.md §12): the Monitor every checker reports into.
//
// A Monitor owns three things:
//   - a registry of named invariants — predicates over live component state
//     that must hold whenever the simulation is quiescent between events
//     (check_now()) and a separate set that only holds once the scheduler
//     has fully drained (finish());
//   - a ring buffer of the last kHistoryCapacity breadcrumbs (note_*()) so
//     a violation report shows the event history leading up to it, not
//     just the broken ledger;
//   - the violation list itself, capped so a systemic failure produces a
//     readable report instead of a million-line flood.
//
// There is one build: a run is checked when it constructs a Monitor and
// attaches components to it (attach.hpp), the way a run is traced when it
// attaches an obs::SpanTracer.  Attaching schedules nothing, so a checked
// run simulates exactly what the bare run does.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "des/scheduler.hpp"
#include "des/time.hpp"

namespace gtw::check {

// One failed invariant, with the breadcrumb trail that led to it.
struct Violation {
  std::string checker;  // e.g. "des.monotonic-fire", "link.j->g.bytes"
  std::string message;
  des::SimTime when;                 // simulated time of detection
  std::vector<std::string> history;  // ring-buffer snapshot, oldest first
};

class Monitor {
 public:
  // An invariant returns std::nullopt while it holds, or a description of
  // what broke.  Invariants must be pure observations: gtw-lint's
  // check-side-effect rule polices the check-hook call sites, and the
  // same discipline applies here by convention.
  using InvariantFn = std::function<std::optional<std::string>()>;

  explicit Monitor(des::Scheduler& sched) : sched_(sched) {}
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  des::Scheduler& scheduler() { return sched_; }

  // --- breadcrumbs ----------------------------------------------------------
  // Record one event into the history ring; the last kHistoryCapacity
  // survive into any subsequent violation report.  The ring holds
  // fixed-size records, formatted only when a violation snapshots them, so
  // a note costs a few stores; the strings it points at must outlive the
  // Monitor.  A report prints, per note:
  //   <what> seq=<seq>                   ("fire", "cancel")
  //   path <path> side <side> msg <msg> (<bytes> B) delivered
  //   fault <kind> <target> begin|end
  void note_event(const char* what, std::uint64_t seq);
  void note_delivered(const char* path, int side, std::uint64_t msg,
                      std::uint64_t bytes);
  void note_fault(const char* kind, const char* target, bool begin);

  // --- reporting ------------------------------------------------------------
  // Record a violation detected by `checker` right now.  The first
  // kMaxViolations are kept verbatim; beyond that only the count grows.
  void violation(const std::string& checker, const std::string& message);

  // --- invariant registry ---------------------------------------------------
  // `checker` names the invariant in reports.  Quiescent invariants are
  // evaluated by every check_now() and by finish(); drain checks only by
  // finish(), once the event queue is empty and all in-flight work must
  // have landed somewhere accountable.
  void add_invariant(std::string checker, InvariantFn fn) {
    invariants_.emplace_back(std::move(checker), std::move(fn));
  }
  void add_drain_check(std::string checker, InvariantFn fn) {
    drain_checks_.emplace_back(std::move(checker), std::move(fn));
  }

  // Evaluate all quiescent invariants; returns violations found this sweep.
  // attach_scheduler's checker calls it between events during the run.
  std::size_t check_now();

  // End-of-run sweep: quiescent invariants plus drain checks (leak census,
  // conservation at rest).  Call after the scheduler has drained.
  std::size_t finish();

  // --- results --------------------------------------------------------------
  bool clean() const { return total_violations_ == 0; }
  std::uint64_t total_violations() const { return total_violations_; }
  const std::vector<Violation>& violations() const { return violations_; }

  // Human-readable report of all recorded violations (with histories), or
  // a one-line all-clear.
  std::string report() const;

  // Gate helper for benches and CI: prints the report to stderr and calls
  // std::exit(1) unless clean.  `context` names the run in the report.
  void require_clean(const std::string& context) const;

  // Keep a checker object alive for the monitor's lifetime (the attach
  // catalog allocates hook implementations through this).
  template <typename T, typename... Args>
  T& make_checker(Args&&... args) {
    auto obj = std::make_shared<T>(std::forward<Args>(args)...);
    T& ref = *obj;
    owned_.push_back(std::move(obj));
    return ref;
  }

  static constexpr std::size_t kHistoryCapacity = 64;
  static constexpr std::size_t kMaxViolations = 100;

 private:
  struct Breadcrumb {
    enum class Kind : std::uint8_t { kEvent, kDelivered, kFault };
    Kind kind = Kind::kEvent;
    bool begin = false;  // kFault: applied, not reverted
    int side = 0;        // kDelivered
    des::SimTime at;
    std::uint64_t seq = 0;    // the event's, or kDelivered's message's
    std::uint64_t bytes = 0;  // kDelivered
    // kEvent: what happened; kDelivered: the path; kFault: the fault kind.
    const char* name = nullptr;
    const char* target = nullptr;  // kFault
  };

  Breadcrumb& note(Breadcrumb::Kind kind);
  std::vector<std::string> history_snapshot() const;
  void run_set(
      const std::vector<std::pair<std::string, InvariantFn>>& set,
      std::size_t& found);

  des::Scheduler& sched_;

  // Fixed-size ring: ring_[i % capacity], ring_count_ total notes ever.
  std::array<Breadcrumb, kHistoryCapacity> ring_{};
  std::uint64_t ring_count_ = 0;

  std::vector<std::pair<std::string, InvariantFn>> invariants_;
  std::vector<std::pair<std::string, InvariantFn>> drain_checks_;

  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;

  std::vector<std::shared_ptr<void>> owned_;
};

}  // namespace gtw::check
