#include "obs/instrument.hpp"

#include <string>

namespace gtw::obs {

void instrument_scheduler(Registry& reg, const des::Scheduler& sched,
                          const std::string& prefix) {
  const std::string p = prefix + ".";
  reg.probe_counter(p + "events_executed",
                    [&sched] { return sched.events_executed(); });
  reg.probe_gauge(p + "live_events", [&sched] {
    return static_cast<double>(sched.live_events());
  });
  reg.probe_counter(p + "pool_slots", [&sched] {
    return static_cast<std::uint64_t>(sched.pool_slots());
  });
  reg.probe_gauge(p + "pool_in_use", [&sched] {
    return static_cast<double>(sched.pool_in_use());
  });
  reg.probe_counter(p + "pool_high_water", [&sched] {
    return static_cast<std::uint64_t>(sched.pool_high_water());
  });
  reg.probe_counter(p + "pool_slabs", [&sched] {
    return static_cast<std::uint64_t>(sched.pool_slabs());
  });
  // Deterministic rate: events per simulated second (never wall clock — a
  // wall-clock rate would break the byte-identical replay gate).
  reg.probe_gauge(p + "events_per_sim_s", [&sched] {
    const double sim_s = sched.now().sec();
    if (sim_s <= 0.0) return 0.0;
    return static_cast<double>(sched.events_executed()) / sim_s;
  });
}

void instrument_link(Registry& reg, const net::Link& link,
                     const std::string& prefix) {
  const std::string p =
      (prefix.empty() ? "net.link." + link.name() : prefix) + ".";
  reg.probe_counter(p + "tx_frames", [&link] { return link.frames_sent(); });
  reg.probe_counter(p + "tx_bytes", [&link] { return link.bytes_sent(); });
  reg.probe_counter(p + "drops", [&link] { return link.drops(); });
  reg.probe_counter(p + "dropped_bytes",
                    [&link] { return link.dropped_bytes(); });
  reg.probe_counter(p + "corrupted_frames",
                    [&link] { return link.corrupted_frames(); });
  reg.probe_counter(p + "outage_drops",
                    [&link] { return link.outage_drops(); });
  reg.probe_gauge(p + "queue_bytes", [&link] {
    return static_cast<double>(link.queue_bytes());
  });
  reg.probe_gauge(p + "queue_frames", [&link] {
    return static_cast<double>(link.queue_frames());
  });
  reg.probe_gauge(p + "queue_mean_bytes",
                  [&link] { return link.mean_queue_bytes(); });
  reg.probe_gauge(p + "utilization", [&link] { return link.utilization(); });
}

void instrument_host(Registry& reg, const net::Host& host) {
  const std::string p = "net.host." + host.name() + ".";
  reg.probe_counter(p + "packets_sent",
                    [&host] { return host.packets_sent(); });
  reg.probe_counter(p + "packets_received",
                    [&host] { return host.packets_received(); });
  reg.probe_counter(p + "packets_forwarded",
                    [&host] { return host.packets_forwarded(); });
  reg.probe_counter(p + "unroutable_drops",
                    [&host] { return host.unroutable_drops(); });
  reg.probe_counter(p + "outage_drops",
                    [&host] { return host.outage_drops(); });
  reg.probe_gauge(p + "up", [&host] { return host.up() ? 1.0 : 0.0; });
}

void instrument_atm_switch(Registry& reg, net::AtmSwitch& sw) {
  const std::string p = "net.atm." + sw.name() + ".";
  reg.probe_counter(p + "unroutable_drops",
                    [&sw] { return sw.unroutable_drops(); });
  for (int port = 0; port < sw.port_count(); ++port)
    instrument_link(reg, sw.egress_link(port),
                    p + "port" + std::to_string(port));
}

void instrument_path_transport(Registry& reg, const meta::PathTransport& path,
                               const std::string& name) {
  const std::string p = "meta.path." + name + ".";
  for (int side = 0; side < 2; ++side) {
    const std::string sp = p + "side" + std::to_string(side) + ".";
    const meta::PathTransport::Stats& st = path.stats(side);
    reg.probe_counter(sp + "messages", [&st] { return st.messages; });
    reg.probe_counter(sp + "bytes", [&st] { return st.bytes; });
    reg.probe_counter(sp + "chunks", [&st] { return st.chunks; });
    reg.probe_counter(sp + "chunk_resends",
                      [&st] { return st.chunk_resends; });
    reg.probe_counter(sp + "duplicate_chunks",
                      [&st] { return st.duplicate_chunks; });
    reg.probe_counter(sp + "stream_resets",
                      [&st] { return st.stream_resets; });
    reg.probe_counter(sp + "paced_delays", [&st] { return st.paced_delays; });
    reg.probe_counter(sp + "delivered_messages",
                      [&st] { return st.delivered_messages; });
    reg.probe_counter(sp + "delivered_bytes",
                      [&st] { return st.delivered_bytes; });
    reg.probe_gauge(sp + "reassembly_bytes", [&st] {
      return static_cast<double>(st.reassembly_bytes);
    });
    reg.probe_gauge(sp + "reassembly_peak_bytes", [&st] {
      return static_cast<double>(st.reassembly_peak_bytes);
    });
    reg.probe_gauge(sp + "goodput_mbps", [&path, side] {
      return path.goodput(side).bps() / 1e6;
    });
    for (int s = 0; s < path.stream_count(); ++s) {
      const std::string stp = sp + "stream" + std::to_string(s) + ".";
      reg.probe_counter(stp + "chunks", [&path, side, s] {
        return path.stream_stats(side, s).chunks;
      });
      reg.probe_counter(stp + "bytes", [&path, side, s] {
        return path.stream_stats(side, s).bytes;
      });
      reg.probe_counter(stp + "resets", [&path, side, s] {
        return path.stream_stats(side, s).resets;
      });
      reg.probe_counter(stp + "tcp_retransmits", [&path, side, s] {
        return path.stream_stats(side, s).tcp_retransmits;
      });
      reg.probe_counter(stp + "tcp_timeouts", [&path, side, s] {
        return path.stream_stats(side, s).tcp_timeouts;
      });
    }
  }
  reg.probe_gauge(p + "active_streams", [&path] {
    return static_cast<double>(path.active_streams());
  });
  reg.probe_gauge(p + "stream_window_bytes", [&path] {
    return static_cast<double>(path.stream_window().count());
  });
}

void bridge_flow_metrics(Registry& reg, const flow::MetricsRegistry& metrics,
                         const std::string& prefix) {
  for (int i = 0; i < static_cast<int>(metrics.stages().size()); ++i) {
    // Capture (registry, index), not a StageMetrics reference: the stages
    // vector may reallocate if stages are added after instrumentation.
    const std::string p =
        prefix + ".stage." + metrics.stage(i).name + ".";
    reg.probe_counter(p + "items_in",
                      [&metrics, i] { return metrics.stage(i).items_in; });
    reg.probe_counter(p + "items_out",
                      [&metrics, i] { return metrics.stage(i).items_out; });
    reg.probe_counter(p + "dropped",
                      [&metrics, i] { return metrics.stage(i).dropped; });
    reg.probe_gauge(p + "queue_depth", [&metrics, i] {
      return static_cast<double>(metrics.stage(i).queue_depth);
    });
    reg.probe_counter(p + "queue_peak", [&metrics, i] {
      return static_cast<std::uint64_t>(metrics.stage(i).queue_peak);
    });
    reg.probe_counter(p + "busy_ps", [&metrics, i] {
      return static_cast<std::uint64_t>(metrics.stage(i).busy.ps());
    });
    reg.probe_gauge(p + "occupancy",
                    [&metrics, i] { return metrics.stage(i).occupancy(); });
    reg.probe_gauge(p + "throughput_per_s", [&metrics, i] {
      return metrics.stage(i).throughput_per_s();
    });
  }
  const std::string g = prefix + ".graph.";
  reg.probe_counter(g + "pushed", [&metrics] { return metrics.pushed; });
  reg.probe_counter(g + "admitted", [&metrics] { return metrics.admitted; });
  reg.probe_counter(g + "admission_dropped",
                    [&metrics] { return metrics.admission_dropped; });
  reg.probe_counter(g + "completed", [&metrics] { return metrics.completed; });
  reg.probe_counter(g + "admission_peak", [&metrics] {
    return static_cast<std::uint64_t>(metrics.admission_peak);
  });
  reg.probe_counter(g + "degraded_spans",
                    [&metrics] { return metrics.degraded_spans; });
  reg.probe_counter(g + "degraded_dropped",
                    [&metrics] { return metrics.degraded_dropped; });
  reg.probe_counter(g + "recoveries",
                    [&metrics] { return metrics.recoveries; });
  reg.probe_counter(g + "degraded_ps", [&metrics] {
    return static_cast<std::uint64_t>(metrics.degraded_time.ps());
  });
  reg.probe_counter(g + "last_recovery_ps", [&metrics] {
    return static_cast<std::uint64_t>(metrics.last_recovery_time.ps());
  });
}

void attach_fault_plan(Registry& reg, net::FaultPlan& plan,
                       const std::string& prefix) {
  // Eager so the totals exist (as zeros) even when no fault ever fires.
  reg.counter(prefix + ".begins");
  reg.counter(prefix + ".ends");
  reg.probe_gauge(prefix + ".active", [&plan] {
    return static_cast<double>(plan.active_faults());
  });
  plan.add_observer([&reg, prefix](const net::FaultEvent& ev, bool active) {
    const std::string kind = net::to_string(ev.kind);
    reg.counter(prefix + (active ? ".begins" : ".ends")).add();
    reg.counter(prefix + "." + kind + (active ? ".begins" : ".ends")).add();
    reg.mark(prefix + "." + kind + "." + ev.target,
             active ? ev.at : ev.at + ev.duration, active);
  });
}

}  // namespace gtw::obs
