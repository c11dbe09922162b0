// GTW-San attach catalog: one attach_* per simulator component, mirroring
// the obs:: instrumentation catalog (src/obs/instrument.hpp) entry for
// entry — gtw-lint's check-coverage rule diffs the two and fails the build
// when a component type is instrumented for observability but absent here.
//
// Each attach_* snapshots the component's existing accessors into the pure
// ledger structs of invariants.hpp and registers the verdicts with the
// Monitor; components are observed, never modified.  Where an invariant
// needs per-event visibility (scheduler ordering, chunk exactly-once),
// attach_* additionally installs a hook/observer object, which the
// component calls through a null-checked pointer in every build.
//
// Lifetime: attached components must outlive the Monitor.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "check/invariants.hpp"
#include "check/monitor.hpp"
#include "des/check_hook.hpp"
#include "des/scheduler.hpp"
#include "flow/graph.hpp"
#include "flow/metrics.hpp"
#include "meta/path_transport.hpp"
#include "net/atm.hpp"
#include "net/fault.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/tcp.hpp"
#include "obs/span.hpp"
#include "testbed/testbed.hpp"

namespace gtw::check {

// --- DES engine -------------------------------------------------------------
// Per-event scheduler discipline, via des::SchedulerCheckHook:
//   des.sched.monotonic-fire   dispatch times never go backwards
//   des.sched.past-schedule    no event scheduled before now()
//   des.sched.double-cancel    the same tombstone cancelled twice
// It also drives the Monitor's quiescent invariants during the run: before
// every kSweepEvery-th event fires it calls check_now(), so a ledger that
// breaks and heals before drain is still reported.  That schedules
// nothing.  The class is public (rather than an attach-internal detail) so
// the violation-fixture harness can drive its on_* methods directly.
class SchedulerChecker : public des::SchedulerCheckHook {
 public:
  static constexpr std::uint64_t kSweepEvery = 4096;

  explicit SchedulerChecker(Monitor& mon) : mon_(mon) {}

  void on_schedule(des::SimTime when, des::SimTime now,
                   std::uint64_t seq) override;
  void on_fire(des::SimTime when, std::uint64_t seq) override;
  void on_cancel(std::uint64_t seq, CancelOutcome outcome) override;

  // Stale cancels (recycled slot / already fired) are a documented no-op,
  // not a violation; counted for diagnostics.
  std::uint64_t stale_cancels() const { return stale_cancels_; }

 private:
  Monitor& mon_;
  des::SimTime last_fire_;
  std::uint64_t fired_ = 0;
  std::uint64_t stale_cancels_ = 0;
};

// Installs a SchedulerChecker as the scheduler's check hook and registers
// the event-pool census: pool_in_use == live_events + cancelled tombstones
// at every quiescent point (which at drain degenerates to the leak check),
// plus the SlabPool double-free count.
SchedulerChecker& attach_scheduler(Monitor& mon, des::Scheduler& sched);

// Leak census over any SlabPool-shaped object (in_use() and
// double_frees()).  For a pool reachable only through accessors —
// the scheduler's event pool — the owning attach_* registers the equivalent
// checks itself.
template <typename Pool>
void attach_pool(Monitor& mon, const Pool& pool, const std::string& name) {
  mon.add_drain_check(name + ".leak",
                      [&pool]() -> std::optional<std::string> {
                        if (pool.in_use() == 0) return std::nullopt;
                        return std::to_string(pool.in_use()) +
                               " slot(s) still live at drain";
                      });
  mon.add_drain_check(name + ".double-free",
                      [&pool]() -> std::optional<std::string> {
                        if (pool.double_frees() == 0) return std::nullopt;
                        return std::to_string(pool.double_frees()) +
                               " double-free(s) detected";
                      });
}

// --- net --------------------------------------------------------------------
// Byte/frame conservation, continuously; drained-queue census at drain.
// `name` defaults to the link's own name.
void attach_link(Monitor& mon, const net::Link& link,
                 const std::string& name = "");

// Receive-path frame conservation and reassembly leak census at drain.
void attach_host(Monitor& mon, const net::Host& host);

// Fabric frame conservation at drain (ingress == egress + unroutable),
// plus attach_link over every egress port.
void attach_atm_switch(Monitor& mon, const net::AtmSwitch& sw);

// Sequence-space sanity per direction, continuously; with
// `expect_complete`, full-delivery checks at drain.  Do not use on
// connections a PathTransport may reset (their lifetime is the stream's,
// not the run's) — attach_path_transport covers those.
void attach_tcp(Monitor& mon, const net::TcpConnection& conn,
                const std::string& name, bool expect_complete = false);

// --- meta -------------------------------------------------------------------
// Exactly-once, strictly-in-order delivery ledger for one PathTransport
// side pair, via meta::PathCheckObserver.  Public (like SchedulerChecker)
// so the violation-fixture harness can feed it chunks directly.  Its
// delivery breadcrumbs point at its id, so its Monitor must record no
// violation once it is gone; attach_path_transport lets the Monitor own it.
class PathChecker : public meta::PathCheckObserver {
 public:
  PathChecker(Monitor& mon, std::string id) : mon_(mon), id_(std::move(id)) {}

  void on_chunk(int side, std::uint64_t msg_seq, std::uint32_t idx,
                bool duplicate) override;
  void on_message(int side, std::uint64_t msg_seq,
                  std::uint64_t bytes) override;

 private:
  Monitor& mon_;
  std::string id_;
  std::set<std::pair<std::uint64_t, std::uint32_t>> seen_chunks_[2];
  std::uint64_t next_msg_[2] = {0, 0};
};

// Exactly-once, in-order chunk and message delivery via
// meta::PathCheckObserver, plus the stranded-chunk / reassembly-leak drain
// census of path_drained().
void attach_path_transport(Monitor& mon, meta::PathTransport& path,
                           const std::string& name);

// --- flow -------------------------------------------------------------------
// Graph item conservation (continuous) and the all-work-landed census at
// drain, using the graph's live admission/in-flight state.
void attach_stage_graph(Monitor& mon, const flow::StageGraph& graph,
                        const std::string& prefix);

// Registry-only consistency for code that exposes metrics without the
// graph: per-stage ledger sanity plus the degraded-subset law.
void attach_flow_metrics(Monitor& mon, const flow::MetricsRegistry& metrics,
                         const std::string& prefix);

// --- faults -----------------------------------------------------------------
// Observer-based bracket check: every fault that begins also ends (no
// fault still active once the plan's horizon has passed and the run
// drained), and active_faults() never goes negative.
void attach_fault_plan(Monitor& mon, net::FaultPlan& plan,
                       const std::string& prefix = "fault");

// --- obs --------------------------------------------------------------------
// Span-lifecycle leak census over the causal tracer (DESIGN.md section 13):
// once the run drains, every span begun must have been ended or aborted and
// every trace closed — an open span at drain is a component that began
// timing work and lost track of it (the tracing analogue of a stranded
// chunk).  Registered as drain checks under `prefix`.
void attach_span_tracer(Monitor& mon, const obs::SpanTracer& tracer,
                        const std::string& prefix = "obs.span");

// --- whole topology ---------------------------------------------------------
// Arms the full sweep over an assembled testbed: scheduler, every host,
// both ATM switches (and thereby every egress port link), and every ATM
// NIC uplink.  The one-call entry point benches use.
void attach_testbed(Monitor& mon, testbed::Testbed& tb);

}  // namespace gtw::check
