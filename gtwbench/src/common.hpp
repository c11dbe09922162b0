// Shared types of the gtw_bench program and its three workloads.
//
// A workload is a sequence of scenario *units* drawn from the seed (one WAN
// transfer, one FIRE session, one national-star run).  A unit is set up,
// then driven through the public Scheduler::run API as a series of *ops*,
// each timed on the host clock.  With a ledger, the same unit runs again
// traced; its simulated results must not change.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "ledger.hpp"

namespace gtw::net {
class Host;
class Link;
}  // namespace gtw::net
namespace gtw::testbed {
class Testbed;
}

namespace gtwbench {

// Deterministic per-unit stream: unit i of seed s always draws the same
// scenario, whatever ran before it.
inline gtw::des::Rng unit_rng(std::uint64_t seed, std::uint64_t unit,
                              std::uint64_t salt) {
  return gtw::des::Rng{(seed * 0x9e3779b97f4a7c15ULL) ^
                       (unit * 0xbf58476d1ce4e5b9ULL) ^ salt};
}

// Counters of the simulated system read after a unit; deterministic.
struct Counters {
  std::uint64_t link_frames = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t host_packets = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t tcp_payload_bytes = 0;  // bytes the application asked for
  std::uint64_t tcp_resent_bytes = 0;   // estimated: retransmits x MSS
  std::uint64_t meta_chunks = 0;
  std::uint64_t meta_resends = 0;
  std::uint64_t meta_duplicates = 0;
  std::uint64_t meta_resets = 0;
  std::uint64_t flow_admitted = 0;
  std::uint64_t flow_superseded = 0;
  std::uint64_t pending_peak = 0;
};

struct UnitResult {
  std::string scenario;  // one-line description of the drawn scenario
  double setup_s = 0.0;  // host time before the first event fires
  std::vector<double> op_ms;
  bool ok = true;        // every oracle held; otherwise all ops fail
  std::string failure;
  double delivered_mb = 0.0;  // simulated payload delivered, 1e6 bytes

  // Simulated (model) results, checked as bands and never gated.
  double sim_s = 0.0;               // simulated completion time of the unit
  double goodput_mbps = 0.0;        // 0 where not applicable
  double mean_total_delay_s = 0.0;  // fire only
  std::uint64_t events = 0;
  std::uint64_t stream_hash = 0;

  Counters counters;
  double run_ms = 0.0;  // wall of all Scheduler::run calls of the unit
  double testbed_build_ms = -1.0;   // -1: not built by this workload
  double national_build_ms = -1.0;

  // Traced runs only.
  std::map<std::string, std::vector<double>> kernel_ms;  // fire kernels
  std::map<std::string, std::int64_t> budget_ps;         // obs::budget
  std::int64_t budget_total_ps = 0;
};

// Runs `sched` to `horizon`, returning host milliseconds and reporting the
// wall time to the ledger when one is attached.
inline double timed_run(gtw::des::Scheduler& sched, Ledger* ledger,
                        gtw::des::SimTime horizon = gtw::des::SimTime::max()) {
  const std::int64_t t0 = now_ns();
  sched.run(horizon);
  const std::int64_t dt = now_ns() - t0;
  if (ledger != nullptr) ledger->add_run(dt);
  return static_cast<double>(dt) / 1e6;
}

inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// How a unit runs: untraced (no ledger); under the ledger alone, which
// gives the per-layer costs; or under the ledger forwarding every call to
// an obs::SpanTracer, which gives the tracer's cost and the span budget.
struct Tracing {
  Ledger* ledger = nullptr;
  bool spans = false;
};

// The workloads: unit `unit` of seed `seed`.
UnitResult run_wan_bulk(std::uint64_t seed, std::uint64_t unit,
                        Tracing tracing);
UnitResult run_fire_realtime(std::uint64_t seed, std::uint64_t unit,
                             Tracing tracing);
UnitResult run_national_star(std::uint64_t seed, std::uint64_t unit,
                             Tracing tracing);

// Folds an obs::SpanTracer's closed traces into `r.budget_ps` through the
// spans artifact and obs::budget (the gtw-trace --budget path).
void add_budget(const gtw::obs::SpanTracer& tracer, UnitResult& r);

// Add a link's frames and losses, or a host's packets, to `c`.
void count_link(const gtw::net::Link& l, Counters& c);
void count_host(const gtw::net::Host& h, Counters& c);
// Adds every ATM NIC uplink, ATM switch egress port and named host of the
// testbed to `c`.
void count_testbed(gtw::testbed::Testbed& tb, Counters& c);

}  // namespace gtwbench
