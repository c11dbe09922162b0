// GTW-San invariant library: the conservation laws and protocol contracts
// themselves, as pure functions over plain ledger structs.
//
// Keeping the predicates free of component types does two things: the
// violation-fixture harness (tests/check_violation_test.cpp) can hand-build
// a broken ledger and prove each checker actually fires, and the attach
// catalog (attach.hpp) stays a thin snapshot layer — it copies component
// counters into these structs and forwards the verdict to the Monitor.
//
// Every function returns std::nullopt while the invariant holds, or a
// description of the imbalance (with the numbers, so a CI log is enough to
// start debugging).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace gtw::check {

// --- net::Link --------------------------------------------------------------
// Byte conservation on a link: every byte ever submitted is exactly one of
// sent, dropped (queue/refused), dropped-by-outage, or still queued.  The
// *byte* equation holds continuously (between events): a frame being
// clocked out stays in `queued_bytes` until its wire end.  The *frame*
// equation only holds at drain — an in-transmit frame has left the queue
// container but is not yet sent, so link_conservation checks bytes alone
// and link_drained adds the frame ledger once nothing is in flight.
struct LinkAccounts {
  std::uint64_t submitted_frames = 0;
  std::uint64_t submitted_bytes = 0;
  std::uint64_t sent_frames = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t dropped_frames = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t outage_dropped_frames = 0;
  std::uint64_t outage_dropped_bytes = 0;
  std::uint64_t queued_frames = 0;
  std::uint64_t queued_bytes = 0;
};
std::optional<std::string> link_conservation(const LinkAccounts& a);
// At drain additionally: nothing queued, and the frame ledger balances.
std::optional<std::string> link_drained(const LinkAccounts& a);

// --- net::Host receive path -------------------------------------------------
// Every frame that arrived at a NIC is, once the receive CPU queue drains,
// exactly one of: received by the application, forwarded (gateway),
// unroutable, or dropped because the host was down.
struct HostAccounts {
  std::uint64_t nic_arrivals = 0;
  std::uint64_t received = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t recv_unroutable = 0;
  std::uint64_t recv_outage_drops = 0;
  std::uint64_t reassembly_pending = 0;  // partially reassembled datagrams
};
std::optional<std::string> host_drained(const HostAccounts& a);

// --- net::AtmSwitch ---------------------------------------------------------
// Frame conservation through the fabric at drain: every ingress frame was
// submitted to exactly one egress link or counted unroutable.  (Egress
// submissions ride a scheduled switching-latency event, so this is a drain
// check, not a continuous one.)
struct SwitchAccounts {
  std::uint64_t ingress_frames = 0;
  std::uint64_t egress_submitted_frames = 0;  // summed over egress links
  std::uint64_t unroutable_frames = 0;
};
std::optional<std::string> switch_drained(const SwitchAccounts& a);

// --- net::TcpConnection -----------------------------------------------------
// Sequence-space sanity for one direction of a connection.  Holds
// continuously: una <= nxt <= max <= end, cwnd never collapses below one
// segment, and the receiver's out-of-order buffer never exceeds its
// advertised receive buffer.
struct TcpSeqAccounts {
  std::uint64_t snd_una = 0;
  std::uint64_t snd_nxt = 0;
  std::uint64_t snd_max = 0;
  std::uint64_t snd_end = 0;
  std::uint64_t ooo_buffered = 0;
  double cwnd = 0.0;
  std::uint64_t mss = 0;
  std::uint64_t recv_buffer = 0;
};
std::optional<std::string> tcp_sequence_sanity(const TcpSeqAccounts& a);
// At drain (when the connection is expected to have finished its queued
// work): everything queued was sent and acked, nothing lingers out of order.
std::optional<std::string> tcp_drained(const TcpSeqAccounts& a);

// --- meta::PathTransport ----------------------------------------------------
// One sending side of a striped WAN path at drain: every queued message was
// delivered, reassembly is empty, and no chunk is stranded in a stream
// (undispatched or handed to TCP but never delivered) — the stall-reset
// re-issue logic must leave no orphans behind.
struct PathAccounts {
  std::uint64_t messages = 0;
  std::uint64_t delivered_messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t reassembly_bytes = 0;
  std::uint64_t undispatched_chunks = 0;
  std::uint64_t outstanding_chunks = 0;
  std::uint64_t inflight_messages = 0;
};
std::optional<std::string> path_drained(const PathAccounts& a);

// --- flow::StageGraph -------------------------------------------------------
// Item conservation through a dataflow graph: everything pushed is admitted
// or dropped at admission or still waiting; everything admitted is
// completed, dropped inside a stage, or still in flight.  Degraded-mode
// drops are a subset of admission drops.  Holds continuously.
struct FlowAccounts {
  std::uint64_t pushed = 0;
  std::uint64_t admitted = 0;
  std::uint64_t admission_dropped = 0;
  std::uint64_t degraded_dropped = 0;
  std::uint64_t completed = 0;
  std::uint64_t stage_dropped = 0;  // summed over stages
  std::uint64_t waiting_admission = 0;
  std::uint64_t in_flight = 0;
};
std::optional<std::string> flow_conservation(const FlowAccounts& a);
// At drain additionally: nothing waiting, nothing in flight.
std::optional<std::string> flow_drained(const FlowAccounts& a);

// --- flow per-stage ledger --------------------------------------------------
// One stage's ledger: outputs and drops never exceed inputs, and the queue
// depth equals what went in minus what came out or was dropped... except
// items currently being serviced, so depth <= in - out - dropped, and the
// peak is an upper bound for the current depth.
struct FlowStageAccounts {
  std::uint64_t items_in = 0;
  std::uint64_t items_out = 0;
  std::uint64_t dropped = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_peak = 0;
};
std::optional<std::string> flow_stage_sanity(const FlowStageAccounts& a);

}  // namespace gtw::check
