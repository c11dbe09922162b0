#include "check/attach.hpp"

#include <cstdarg>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

namespace gtw::check {
namespace {

std::string fmt(const char* f, ...) {
  char buf[192];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

}  // namespace

// --- scheduler --------------------------------------------------------------

void SchedulerChecker::on_schedule(des::SimTime when, des::SimTime now,
                                   std::uint64_t seq) {
  if (when < now) {
    mon_.violation("des.sched.past-schedule",
                   fmt("event seq=%llu scheduled for t=%.9fs, %.3fus before "
                       "now — the compiled-out assert class",
                       static_cast<unsigned long long>(seq), when.sec(),
                       (now - when).us()));
  }
}

void SchedulerChecker::on_fire(des::SimTime when, std::uint64_t seq) {
  if (fired_ != 0 && when < last_fire_) {
    mon_.violation("des.sched.monotonic-fire",
                   fmt("event seq=%llu fired at t=%.9fs after an event at "
                       "t=%.9fs — dispatch went backwards",
                       static_cast<unsigned long long>(seq), when.sec(),
                       last_fire_.sec()));
  }
  // The previous event has finished and this one has not begun: the
  // quiescent point the invariants are written for.
  if (++fired_ % kSweepEvery == 0) mon_.check_now();
  last_fire_ = when;
  mon_.note_event("fire", seq);
}

void SchedulerChecker::on_cancel(std::uint64_t seq, CancelOutcome outcome) {
  switch (outcome) {
    case CancelOutcome::kCancelled:
      mon_.note_event("cancel", seq);
      break;
    case CancelOutcome::kStale:
      // Cancelling an already-fired or recycled event is a documented
      // no-op (pace timers, defensive teardown); count, don't flag.
      ++stale_cancels_;
      break;
    case CancelOutcome::kDouble:
      mon_.violation("des.sched.double-cancel",
                     fmt("event seq=%llu cancelled twice through the same "
                         "generation — a stale handle copy is being reused",
                         static_cast<unsigned long long>(seq)));
      break;
  }
}

SchedulerChecker& attach_scheduler(Monitor& mon, des::Scheduler& sched) {
  auto& checker = mon.make_checker<SchedulerChecker>(mon);
  sched.set_check_hook(&checker);
  mon.add_invariant(
      "des.pool.census", [&sched]() -> std::optional<std::string> {
        const std::size_t expect =
            sched.live_events() + sched.cancelled_entries();
        if (sched.pool_in_use() == expect) return std::nullopt;
        return fmt("event records in use (%zu) != live (%zu) + tombstones "
                   "(%zu) — a record leaked or was freed while queued",
                   sched.pool_in_use(), sched.live_events(),
                   sched.cancelled_entries());
      });
  mon.add_invariant(
      "des.pool.double-free", [&sched]() -> std::optional<std::string> {
        if (sched.pool_double_frees() == 0) return std::nullopt;
        return fmt("%llu double-free(s) in the event pool",
                   static_cast<unsigned long long>(
                       sched.pool_double_frees()));
      });
  return checker;
}

// --- net --------------------------------------------------------------------

namespace {

LinkAccounts snapshot_link(const net::Link& link) {
  LinkAccounts a;
  a.submitted_frames = link.submitted_frames();
  a.submitted_bytes = link.submitted_bytes();
  a.sent_frames = link.frames_sent();
  a.sent_bytes = link.bytes_sent();
  a.dropped_frames = link.drops();
  a.dropped_bytes = link.dropped_bytes();
  a.outage_dropped_frames = link.outage_drops();
  a.outage_dropped_bytes = link.outage_dropped_bytes();
  a.queued_frames = link.queue_frames();
  a.queued_bytes = link.queue_bytes();
  return a;
}

}  // namespace

void attach_link(Monitor& mon, const net::Link& link,
                 const std::string& name) {
  const std::string id = "net.link." + (name.empty() ? link.name() : name);
  mon.add_invariant(id + ".bytes",
                    [&link]() -> std::optional<std::string> {
                      return link_conservation(snapshot_link(link));
                    });
  mon.add_drain_check(id + ".drain",
                      [&link]() -> std::optional<std::string> {
                        return link_drained(snapshot_link(link));
                      });
}

void attach_host(Monitor& mon, const net::Host& host) {
  const std::string id = "net.host." + host.name();
  mon.add_drain_check(id + ".recv", [&host]() -> std::optional<std::string> {
    HostAccounts a;
    a.nic_arrivals = host.nic_arrivals();
    a.received = host.packets_received();
    a.forwarded = host.packets_forwarded();
    a.recv_unroutable = host.recv_unroutable_drops();
    a.recv_outage_drops = host.recv_outage_drops();
    a.reassembly_pending = host.reassembly_pending();
    return host_drained(a);
  });
}

void attach_atm_switch(Monitor& mon, const net::AtmSwitch& sw) {
  const std::string id = "net.atm." + sw.name();
  mon.add_drain_check(id + ".fabric",
                      [&sw]() -> std::optional<std::string> {
                        SwitchAccounts a;
                        a.ingress_frames = sw.ingress_frames();
                        a.unroutable_frames = sw.unroutable_drops();
                        for (int p = 0; p < sw.port_count(); ++p) {
                          a.egress_submitted_frames +=
                              sw.egress_link(p).submitted_frames();
                        }
                        return switch_drained(a);
                      });
  for (int p = 0; p < sw.port_count(); ++p) {
    attach_link(mon, sw.egress_link(p),
                sw.name() + ".port" + std::to_string(p));
  }
}

namespace {

TcpSeqAccounts snapshot_tcp(const net::TcpConnection& conn, int side) {
  const net::TcpConnection::SeqState s = conn.seq_state(side);
  TcpSeqAccounts a;
  a.snd_una = s.snd_una;
  a.snd_nxt = s.snd_nxt;
  a.snd_max = s.snd_max;
  a.snd_end = s.snd_end;
  a.ooo_buffered = s.ooo_buffered;
  a.cwnd = s.cwnd;
  a.mss = conn.config().mss.count();
  a.recv_buffer = conn.config().recv_buffer.count();
  return a;
}

}  // namespace

void attach_tcp(Monitor& mon, const net::TcpConnection& conn,
                const std::string& name, bool expect_complete) {
  for (int side = 0; side < 2; ++side) {
    const std::string id =
        "tcp." + name + ".side" + std::to_string(side);
    mon.add_invariant(id + ".seq",
                      [&conn, side]() -> std::optional<std::string> {
                        return tcp_sequence_sanity(snapshot_tcp(conn, side));
                      });
    if (expect_complete) {
      mon.add_drain_check(id + ".drain",
                          [&conn, side]() -> std::optional<std::string> {
                            return tcp_drained(snapshot_tcp(conn, side));
                          });
    }
  }
}

// --- meta -------------------------------------------------------------------

void PathChecker::on_chunk(int side, std::uint64_t msg_seq, std::uint32_t idx,
                           bool duplicate) {
  auto& seen = seen_chunks_[side];
  const auto key = std::make_pair(msg_seq, idx);
  if (duplicate) {
    // The transport says this chunk already arrived; if we never saw it,
    // the duplicate-suppression bookkeeping is lying.
    if (seen.find(key) == seen.end()) {
      mon_.violation(id_ + ".chunk-dup",
                     fmt("side %d chunk (msg %llu, idx %u) flagged "
                         "duplicate but never delivered",
                         side, static_cast<unsigned long long>(msg_seq),
                         idx));
    }
    return;
  }
  if (!seen.insert(key).second) {
    mon_.violation(id_ + ".chunk-twice",
                   fmt("side %d chunk (msg %llu, idx %u) delivered twice "
                       "without duplicate suppression",
                       side, static_cast<unsigned long long>(msg_seq), idx));
  }
}

void PathChecker::on_message(int side, std::uint64_t msg_seq,
                             std::uint64_t bytes) {
  if (msg_seq != next_msg_[side]) {
    mon_.violation(id_ + ".order",
                   fmt("side %d delivered message seq=%llu, expected "
                       "seq=%llu — send order broken",
                       side, static_cast<unsigned long long>(msg_seq),
                       static_cast<unsigned long long>(next_msg_[side])));
    // Resynchronize so one break reports once, not per message.
    next_msg_[side] = msg_seq + 1;
  } else {
    ++next_msg_[side];
  }
  mon_.note_delivered(id_.c_str(), side, msg_seq, bytes);
}

void attach_path_transport(Monitor& mon, meta::PathTransport& path,
                           const std::string& name) {
  const std::string id = "meta.path." + name;
  auto& checker = mon.make_checker<PathChecker>(mon, id);
  path.set_check_observer(&checker);
  for (int side = 0; side < 2; ++side) {
    mon.add_drain_check(
        id + ".side" + std::to_string(side) + ".drain",
        [&path, side]() -> std::optional<std::string> {
          const auto& st = path.stats(side);
          PathAccounts a;
          a.messages = st.messages;
          a.delivered_messages = st.delivered_messages;
          a.bytes = st.bytes;
          a.delivered_bytes = st.delivered_bytes;
          a.reassembly_bytes = st.reassembly_bytes;
          a.undispatched_chunks = path.undispatched_chunks(side);
          a.outstanding_chunks = path.outstanding_chunks(side);
          a.inflight_messages = path.inflight_messages(side);
          return path_drained(a);
        });
  }
}

// --- flow -------------------------------------------------------------------

namespace {

FlowAccounts snapshot_graph(const flow::StageGraph& graph) {
  const flow::MetricsRegistry& m = graph.metrics();
  FlowAccounts a;
  a.pushed = m.pushed;
  a.admitted = m.admitted;
  a.admission_dropped = m.admission_dropped;
  a.degraded_dropped = m.degraded_dropped;
  a.completed = m.completed;
  for (const auto& s : m.stages()) a.stage_dropped += s.dropped;
  a.waiting_admission = graph.waiting_admission();
  a.in_flight = static_cast<std::uint64_t>(graph.in_flight());
  return a;
}

}  // namespace

void attach_stage_graph(Monitor& mon, const flow::StageGraph& graph,
                        const std::string& prefix) {
  mon.add_invariant(prefix + ".conservation",
                    [&graph]() -> std::optional<std::string> {
                      return flow_conservation(snapshot_graph(graph));
                    });
  mon.add_drain_check(prefix + ".drain",
                      [&graph]() -> std::optional<std::string> {
                        return flow_drained(snapshot_graph(graph));
                      });
  attach_flow_metrics(mon, graph.metrics(), prefix);
}

void attach_flow_metrics(Monitor& mon, const flow::MetricsRegistry& metrics,
                         const std::string& prefix) {
  mon.add_invariant(
      prefix + ".stages", [&metrics]() -> std::optional<std::string> {
        for (std::size_t i = 0; i < metrics.stages().size(); ++i) {
          const auto& s = metrics.stages()[i];
          FlowStageAccounts a;
          a.items_in = s.items_in;
          a.items_out = s.items_out;
          a.dropped = s.dropped;
          a.queue_depth = s.queue_depth;
          a.queue_peak = s.queue_peak;
          if (auto broke = flow_stage_sanity(a)) {
            return "stage " + s.name + ": " + *broke;
          }
        }
        return std::nullopt;
      });
  mon.add_invariant(
      prefix + ".degraded-subset",
      [&metrics]() -> std::optional<std::string> {
        if (metrics.degraded_dropped <= metrics.admission_dropped)
          return std::nullopt;
        return fmt("degraded drops (%llu) exceed admission drops (%llu)",
                   static_cast<unsigned long long>(metrics.degraded_dropped),
                   static_cast<unsigned long long>(
                       metrics.admission_dropped));
      });
}

// --- faults -----------------------------------------------------------------

void attach_fault_plan(Monitor& mon, net::FaultPlan& plan,
                       const std::string& prefix) {
  // Observer state lives in a checker object so it survives as long as the
  // monitor; the plan notifies begin/end transitions always-on.  The fault
  // breadcrumbs point at the targets' names kept here.
  struct Brackets {
    std::uint64_t begins = 0;
    std::uint64_t ends = 0;
    std::set<std::string> targets;
  };
  auto& b = mon.make_checker<Brackets>();
  plan.add_observer([&mon, &b, prefix](const net::FaultEvent& ev,
                                       bool active) {
    if (active) {
      ++b.begins;
    } else {
      ++b.ends;
      if (b.ends > b.begins) {
        mon.violation(prefix + ".bracket",
                      fmt("fault '%s' reverted more times than applied",
                          ev.target.c_str()));
      }
    }
    const std::string& target = *b.targets.insert(ev.target).first;
    mon.note_fault(to_string(ev.kind), target.c_str(), active);
  });
  mon.add_drain_check(prefix + ".all-reverted",
                      [&plan, &b]() -> std::optional<std::string> {
                        if (plan.active_faults() == 0 && b.begins == b.ends)
                          return std::nullopt;
                        return fmt("%d fault(s) still active at drain "
                                   "(begins=%llu ends=%llu)",
                                   plan.active_faults(),
                                   static_cast<unsigned long long>(b.begins),
                                   static_cast<unsigned long long>(b.ends));
                      });
}

// --- obs --------------------------------------------------------------------

void attach_span_tracer(Monitor& mon, const obs::SpanTracer& tracer,
                        const std::string& prefix) {
  mon.add_drain_check(prefix + ".leak",
                      [&tracer]() -> std::optional<std::string> {
                        if (tracer.open_spans() == 0) return std::nullopt;
                        return std::to_string(tracer.open_spans()) +
                               " span(s) still open at drain";
                      });
  mon.add_drain_check(prefix + ".trace-leak",
                      [&tracer]() -> std::optional<std::string> {
                        if (tracer.open_traces() == 0) return std::nullopt;
                        return std::to_string(tracer.open_traces()) +
                               " trace(s) still open at drain";
                      });
}

// --- whole topology ---------------------------------------------------------

void attach_testbed(Monitor& mon, testbed::Testbed& tb) {
  attach_scheduler(mon, tb.scheduler());
  for (const auto& [name, host] : tb.hosts()) attach_host(mon, *host);
  attach_atm_switch(mon, tb.atm_juelich());
  attach_atm_switch(mon, tb.atm_gmd());
  for (const net::Link* uplink : tb.atm_uplinks()) {
    attach_link(mon, *uplink);
  }
}

}  // namespace gtw::check
