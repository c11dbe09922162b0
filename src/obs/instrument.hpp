// Instrumentation bridges: wire the simulator's components into an
// obs::Registry without those components depending on obs.
//
// instrument_* and bridge_flow_metrics are passive: they register read-only
// probes (evaluated at snapshot/sample time) over a live component's
// existing accessors — the component is observed, never modified, and
// nothing is scheduled, so attaching instrumentation cannot perturb the DES
// schedule or any result.
//
// attach_fault_plan is the one active hook: it registers a FaultPlan
// observer that counts begin/end transitions and drops a Mark per
// transition so outages show up as instant events in the Chrome trace.
//
// Lifetime: probes capture references; the instrumented component must
// outlive the Registry (or at least every snapshot taken from it).
#pragma once

#include <string>

#include "flow/metrics.hpp"
#include "meta/path_transport.hpp"
#include "net/atm.hpp"
#include "net/fault.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "obs/registry.hpp"

namespace gtw::obs {

// des.sched.{events_executed,live_events,pool_slots,pool_in_use,
// pool_high_water,pool_slabs,events_per_sim_s}.  The engine-core dashboard:
// pool occupancy and high-water are the event-record footprint (queued
// tombstones included), and events_per_sim_s (executed events per
// *simulated* second — deterministic, unlike a wall-clock rate) tracks how
// event-dense the scenario is.
void instrument_scheduler(Registry& reg, const des::Scheduler& sched,
                          const std::string& prefix = "des.sched");

// net.link.<name>.{tx_frames,tx_bytes,drops,dropped_bytes,corrupted_frames,
// outage_drops,queue_bytes,queue_frames,queue_mean_bytes,utilization}; pass
// `prefix` to override the default "net.link.<name>" (the ATM switch
// instruments its port links under its own hierarchy).
void instrument_link(Registry& reg, const net::Link& link,
                     const std::string& prefix = "");

// net.host.<name>.{packets_sent,packets_received,packets_forwarded,
// unroutable_drops,outage_drops,up}
void instrument_host(Registry& reg, const net::Host& host);

// net.atm.<name>.unroutable_drops plus every egress port's link under
// net.atm.<name>.port<i>.* — the switch-buffer visibility the testbed
// operators lacked when the shared ASX-4000 buffers were squeezed.
void instrument_atm_switch(Registry& reg, net::AtmSwitch& sw);

// meta.path.<name>.side<s>.{messages,bytes,chunks,chunk_resends,
// duplicate_chunks,stream_resets,paced_delays,delivered_messages,
// delivered_bytes,reassembly_bytes,reassembly_peak_bytes,goodput_mbps}
// per sending side, meta.path.<name>.side<s>.stream<i>.{chunks,bytes,resets,
// tcp_retransmits,tcp_timeouts} per pooled stream, and path-wide
// {active_streams,stream_window_bytes} gauges from the adaptive controller.
// Probes are registered for the connection pool present at call time.
void instrument_path_transport(Registry& reg, const meta::PathTransport& path,
                               const std::string& name);

// <prefix>.stage.<stage>.{items_in,items_out,dropped,queue_depth,queue_peak,
// busy_ps,occupancy,throughput_per_s} per stage present at call time, plus
// <prefix>.graph.{pushed,admitted,admission_dropped,completed,admission_peak,
// degraded_spans,degraded_dropped,recoveries,degraded_ps,last_recovery_ps}.
void bridge_flow_metrics(Registry& reg, const flow::MetricsRegistry& metrics,
                         const std::string& prefix);

// Counts fault begin/end transitions per kind under <prefix>.* , probes the
// number of currently active faults, and records a Mark per transition.
void attach_fault_plan(Registry& reg, net::FaultPlan& plan,
                       const std::string& prefix = "fault");

}  // namespace gtw::obs
