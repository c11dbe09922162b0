#include "check/invariants.hpp"

#include <cstdio>

namespace gtw::check {
namespace {

// "name=value" joined with spaces; every verdict carries the full ledger so
// the CI log alone is enough to see which side of the equation moved.
std::string balance_msg(const char* law, std::uint64_t lhs, std::uint64_t rhs,
                        const std::string& detail) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %llu != %llu (%s)", law,
                static_cast<unsigned long long>(lhs),
                static_cast<unsigned long long>(rhs), detail.c_str());
  return buf;
}

std::string u64s(const char* name, std::uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s=%llu", name,
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::optional<std::string> link_conservation(const LinkAccounts& a) {
  const std::uint64_t out_bytes =
      a.sent_bytes + a.dropped_bytes + a.outage_dropped_bytes + a.queued_bytes;
  if (a.submitted_bytes != out_bytes) {
    return balance_msg("link byte conservation", a.submitted_bytes, out_bytes,
                       u64s("sent", a.sent_bytes) + " " +
                           u64s("dropped", a.dropped_bytes) + " " +
                           u64s("outage", a.outage_dropped_bytes) + " " +
                           u64s("queued", a.queued_bytes));
  }
  return std::nullopt;
}

std::optional<std::string> link_drained(const LinkAccounts& a) {
  if (a.queued_frames != 0 || a.queued_bytes != 0) {
    return u64s("frames", a.queued_frames) + " " +
           u64s("bytes", a.queued_bytes) +
           " still queued on a drained link";
  }
  if (auto broke = link_conservation(a)) return broke;
  const std::uint64_t out_frames =
      a.sent_frames + a.dropped_frames + a.outage_dropped_frames;
  if (a.submitted_frames != out_frames) {
    return balance_msg("link frame conservation at drain",
                       a.submitted_frames, out_frames,
                       u64s("sent", a.sent_frames) + " " +
                           u64s("dropped", a.dropped_frames) + " " +
                           u64s("outage", a.outage_dropped_frames));
  }
  return std::nullopt;
}

std::optional<std::string> host_drained(const HostAccounts& a) {
  const std::uint64_t accounted =
      a.received + a.forwarded + a.recv_unroutable + a.recv_outage_drops;
  if (a.nic_arrivals != accounted) {
    return balance_msg("host recv conservation", a.nic_arrivals, accounted,
                       u64s("received", a.received) + " " +
                           u64s("forwarded", a.forwarded) + " " +
                           u64s("unroutable", a.recv_unroutable) + " " +
                           u64s("outage", a.recv_outage_drops));
  }
  if (a.reassembly_pending != 0) {
    return u64s("datagrams", a.reassembly_pending) +
           " stuck in IP reassembly on a drained host";
  }
  return std::nullopt;
}

std::optional<std::string> switch_drained(const SwitchAccounts& a) {
  const std::uint64_t accounted =
      a.egress_submitted_frames + a.unroutable_frames;
  if (a.ingress_frames != accounted) {
    return balance_msg("switch frame conservation", a.ingress_frames,
                       accounted,
                       u64s("egress", a.egress_submitted_frames) + " " +
                           u64s("unroutable", a.unroutable_frames));
  }
  return std::nullopt;
}

std::optional<std::string> tcp_sequence_sanity(const TcpSeqAccounts& a) {
  if (!(a.snd_una <= a.snd_nxt && a.snd_nxt <= a.snd_max &&
        a.snd_max <= a.snd_end)) {
    return "sequence order broken: " + u64s("una", a.snd_una) + " " +
           u64s("nxt", a.snd_nxt) + " " + u64s("max", a.snd_max) + " " +
           u64s("end", a.snd_end);
  }
  if (a.mss > 0 && a.cwnd + 1e-9 < static_cast<double>(a.mss)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "cwnd collapsed below one segment: %.1f < %llu",
                  a.cwnd, static_cast<unsigned long long>(a.mss));
    return std::string(buf);
  }
  if (a.recv_buffer > 0 && a.ooo_buffered > a.recv_buffer) {
    return balance_msg("ooo backlog exceeds recv buffer", a.ooo_buffered,
                       a.recv_buffer, u64s("ooo", a.ooo_buffered));
  }
  return std::nullopt;
}

std::optional<std::string> tcp_drained(const TcpSeqAccounts& a) {
  if (auto broke = tcp_sequence_sanity(a)) return broke;
  if (a.snd_una != a.snd_end) {
    return balance_msg("queued bytes not fully acked at drain", a.snd_una,
                       a.snd_end, u64s("nxt", a.snd_nxt));
  }
  if (a.ooo_buffered != 0) {
    return u64s("bytes", a.ooo_buffered) +
           " left in the out-of-order buffer at drain";
  }
  return std::nullopt;
}

std::optional<std::string> path_drained(const PathAccounts& a) {
  if (a.delivered_messages != a.messages ||
      a.delivered_bytes != a.bytes) {
    return balance_msg("path delivery at drain", a.delivered_messages,
                       a.messages,
                       u64s("delivered_bytes", a.delivered_bytes) + " " +
                           u64s("sent_bytes", a.bytes));
  }
  if (a.reassembly_bytes != 0) {
    return u64s("bytes", a.reassembly_bytes) +
           " left in reassembly at drain";
  }
  if (a.undispatched_chunks != 0 || a.outstanding_chunks != 0) {
    return u64s("undispatched", a.undispatched_chunks) + " " +
           u64s("outstanding", a.outstanding_chunks) +
           " chunks stranded at drain (stall reset left orphans)";
  }
  if (a.inflight_messages != 0) {
    return u64s("messages", a.inflight_messages) +
           " still in flight at drain";
  }
  return std::nullopt;
}

std::optional<std::string> flow_conservation(const FlowAccounts& a) {
  const std::uint64_t pushed_accounted =
      a.admitted + a.admission_dropped + a.waiting_admission;
  if (a.pushed != pushed_accounted) {
    return balance_msg("flow admission conservation", a.pushed,
                       pushed_accounted,
                       u64s("admitted", a.admitted) + " " +
                           u64s("admission_dropped", a.admission_dropped) +
                           " " + u64s("waiting", a.waiting_admission));
  }
  const std::uint64_t admitted_accounted =
      a.completed + a.stage_dropped + a.in_flight;
  if (a.admitted != admitted_accounted) {
    return balance_msg("flow completion conservation", a.admitted,
                       admitted_accounted,
                       u64s("completed", a.completed) + " " +
                           u64s("stage_dropped", a.stage_dropped) + " " +
                           u64s("in_flight", a.in_flight));
  }
  if (a.degraded_dropped > a.admission_dropped) {
    return balance_msg("degraded drops exceed admission drops",
                       a.degraded_dropped, a.admission_dropped, "subset law");
  }
  return std::nullopt;
}

std::optional<std::string> flow_drained(const FlowAccounts& a) {
  if (auto broke = flow_conservation(a)) return broke;
  if (a.waiting_admission != 0 || a.in_flight != 0) {
    return u64s("waiting", a.waiting_admission) + " " +
           u64s("in_flight", a.in_flight) + " items alive at drain";
  }
  return std::nullopt;
}

std::optional<std::string> flow_stage_sanity(const FlowStageAccounts& a) {
  if (a.items_out + a.dropped > a.items_in) {
    return balance_msg("stage emitted more than it ingested",
                       a.items_out + a.dropped, a.items_in,
                       u64s("out", a.items_out) + " " +
                           u64s("dropped", a.dropped));
  }
  if (a.queue_depth > a.items_in - a.items_out - a.dropped) {
    return balance_msg("stage queue deeper than its ledger",
                       a.queue_depth, a.items_in - a.items_out - a.dropped,
                       u64s("in", a.items_in));
  }
  if (a.queue_depth > a.queue_peak) {
    return balance_msg("stage queue depth above recorded peak", a.queue_depth,
                       a.queue_peak, u64s("in", a.items_in));
  }
  return std::nullopt;
}

}  // namespace gtw::check
