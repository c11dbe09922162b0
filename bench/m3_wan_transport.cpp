// M3 — MPWide-style multi-stream WAN path transport (ROADMAP item 3).
//
// The r1 bench shows the paper's single-TCP WAN path collapsing to
// ~67 Mbit/s when the OC-48 line misbehaves (an 8 s cut leaves the lone
// connection waiting out an exponentially backed-off RTO; sustained bit
// errors keep crashing its congestion window).  This bench measures what
// meta::PathTransport buys back: N parallel streams with chunk striping,
// per-stream token-bucket pacing, stalled-stream reset and the adaptive
// stream/window controller, swept across
//
//   RTT            x  fault schedule                x  path configuration
//   (100/1000 km)     clean / loss (BER) / outage /    1 stream (today's
//                     loss+outage                      default) vs 4 and 8
//                                                      striped streams
//
// on a 128 MB gateway-to-gateway transfer through `Metacomputer::wan_send`.
// The sustained-loss schedule is the collapse scenario the acceptance row
// at the bottom of the JSON reports (single-stream Reno crashes to the
// r1-style ~67 Mbit/s; eight striped streams hold >3x that).  The outage
// rows ride through the full r1 8 s cut, where any transport's goodput is
// bounded by the dead air (1074 Mbit over >=8.5 s, i.e. ~126 Mbit/s) —
// the multi-stream win there is the stall watchdog resetting backed-off
// connections so transfer resumes within one chunk timeout of the heal
// instead of waiting out an exponentially backed-off RTO.
//
// Deterministic by construction (DES clock only); BENCH_m3_wan_transport
// .json and OBS_m3_wan_transport.metrics.json are byte-stable and sit
// under the double-run determinism replay gate (no field here is
// wall-clock-derived).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "check/attach.hpp"
#include "check/monitor.hpp"
#include "meta/metacomputer.hpp"
#include "meta/path_transport.hpp"
#include "net/fault.hpp"
#include "obs/exporter.hpp"
#include "obs/instrument.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace gtw;

constexpr std::uint64_t kTransferBytes = 128u << 20;
// Sustained bit-error rate that crashes a lone Reno stream's congestion
// window often enough to reproduce the r1-style ~67 Mbit/s collapse on a
// clean-RTT path (tuned against the simulator; see BENCH row "loss").
constexpr double kLossBer = 1.3e-7;
constexpr double kOutageAt = 0.5, kOutageFor = 8.0;

struct SweepCase {
  const char* schedule;  // clean | loss | outage | loss_outage
  const char* config;    // single | multi4 | multi8 | multi8_paced
};

meta::PathConfig path_config(std::string_view config,
                             const testbed::Testbed& tb) {
  meta::PathConfig pc;
  pc.tcp.mss = tb.options().atm_mtu - units::Bytes{40};
  pc.tcp.recv_buffer = units::Bytes{4u << 20};
  if (config == "single") return pc;  // pass-through: today's WAN path
  pc.streams = config == "multi4" ? 4 : 8;
  pc.chunk_bytes = units::Bytes{256u << 10};
  pc.stream_window = units::Bytes{2u << 20};
  pc.chunk_timeout = des::SimTime::milliseconds(400);
  pc.adapt_interval = des::SimTime::milliseconds(500);
  pc.min_streams = 2;
  if (config == "multi8_paced") {
    // Pace each stream to its fair share of the OC-12 gateway attachment
    // so eight striped streams do not dump correlated bursts into the
    // shared ASX-4000 switch buffers.
    pc.pace_rate = units::BitRate::mbps(70.0);
    pc.pace_burst = pc.chunk_bytes;
  }
  return pc;
}

struct Row {
  double transfer_s = 0.0;
  double goodput_mbps = 0.0;
  std::uint64_t chunks = 0;
  std::uint64_t chunk_resends = 0;
  std::uint64_t stream_resets = 0;
  std::uint64_t duplicate_chunks = 0;
  std::uint64_t paced_delays = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t reassembly_peak = 0;
  int active_streams_final = 0;
  std::uint64_t outage_drops = 0;
};

Row run_case(double distance_km, std::string_view schedule,
             std::string_view config, bool emit_obs) {
  testbed::TestbedOptions opts;
  opts.distance_km = distance_km;
  testbed::Testbed tb{opts};
  meta::Metacomputer mc{tb.scheduler()};

  meta::MachineSpec a;
  a.name = "JUELICH";
  a.frontend = &tb.gw_o200();
  meta::MachineSpec b;
  b.name = "GMD";
  b.frontend = &tb.gw_e5000();
  const int ma = mc.add_machine(a);
  const int mb = mc.add_machine(b);
  mc.link_machines(ma, mb, path_config(config, tb), 7000);
  meta::PathTransport& path = *mc.wan_path(ma, mb);

  net::FaultPlan plan(tb.scheduler());
  const bool loss =
      schedule == "loss" || schedule == "loss_outage";
  const bool outage =
      schedule == "outage" || schedule == "loss_outage";
  if (loss) {
    // Sustained bit errors on the data direction for (more than) the whole
    // run; ACKs ride the clean reverse fibre.
    plan.ber_burst(tb.wan_link_j_to_g(), des::SimTime::milliseconds(1),
                   des::SimTime::seconds(300), kLossBer);
  }
  if (outage) {
    plan.link_down(tb.wan_link_j_to_g(), des::SimTime::seconds(kOutageAt),
                   des::SimTime::seconds(kOutageFor));
  }

  obs::Registry reg;
  obs::SpanTracer spans;
  if (emit_obs) {
    obs::instrument_path_transport(reg, path, "wan");
    // Causal spans for the transfer: keep the meta/tcp layers (chunk
    // striping, stalls, resets) but drop the per-frame link/host/atm spans
    // — a 128 MB transfer is ~15k frames and the per-frame detail adds
    // nothing to the stall/reset story this bench tells.
    spans.enable_layer("link", false);
    spans.enable_layer("host", false);
    spans.enable_layer("atm", false);
    tb.scheduler().set_span_hook(&spans);
  }

  // GTW-San: the exactly-once / in-order delivery contract must hold even
  // through loss-driven chunk resends and outage-driven stream resets.
  check::Monitor mon(tb.scheduler());
  check::attach_testbed(mon, tb);
  check::attach_path_transport(mon, path, "wan");
  check::attach_fault_plan(mon, plan);
  check::attach_span_tracer(mon, spans);

  des::SimTime done = des::SimTime::zero();
  mc.wan_send(ma, mb, units::Bytes{kTransferBytes},
              [&] { done = tb.scheduler().now(); });
  tb.scheduler().run();
  mon.finish();
  mon.require_clean("m3_wan_transport");

  if (emit_obs) {
    {
      std::ofstream metrics("OBS_m3_wan_transport.metrics.json",
                            std::ios::binary);
      obs::write_metrics_json(metrics, reg,
                              "m3_wan_transport loss_outage multi8 100km");
    }
    std::ofstream sp("OBS_m3_wan_transport.spans.json", std::ios::binary);
    spans.write_json(sp, "m3_wan_transport loss_outage multi8 100km");
  }

  Row r;
  r.transfer_s = done.sec();
  r.goodput_mbps =
      static_cast<double>(kTransferBytes) * 8.0 / done.sec() / 1e6;
  const meta::PathTransport::Stats& st = path.stats(0);
  r.chunks = st.chunks;
  r.chunk_resends = st.chunk_resends;
  r.stream_resets = st.stream_resets;
  r.duplicate_chunks = st.duplicate_chunks;
  r.paced_delays = st.paced_delays;
  r.reassembly_peak = st.reassembly_peak_bytes;
  for (int s = 0; s < path.stream_count(); ++s) {
    const auto ss = path.stream_stats(0, s);
    r.tcp_retransmits += ss.tcp_retransmits;
    r.tcp_timeouts += ss.tcp_timeouts;
  }
  r.active_streams_final = path.active_streams();
  r.outage_drops = tb.wan_link_j_to_g().outage_drops();
  return r;
}

void print_m3() {
  std::printf("== M3: single- vs multi-stream WAN path transport ==\n");
  std::printf("128 MB gw_o200 -> gw_e5000; loss BER=%.3g, outage %.1fs@%.1fs\n",
              kLossBer, kOutageFor, kOutageAt);
  std::printf("%7s %12s %13s | %10s %9s | %6s %6s %6s\n", "km", "schedule",
              "config", "time(s)", "Mbit/s", "rexmt", "resets", "resend");

  std::ofstream json("BENCH_m3_wan_transport.json");
  json << "{\n  \"bench\": \"m3_wan_transport\",\n"
       << "  \"transfer_bytes\": " << kTransferBytes << ",\n";
  {
    char hdr[160];
    std::snprintf(hdr, sizeof hdr,
                  "  \"loss_ber\": %.17g,\n  \"outage_at_s\": %.17g,\n"
                  "  \"outage_for_s\": %.17g,\n  \"rows\": [\n",
                  kLossBer, kOutageAt, kOutageFor);
    json << hdr;
  }

  const SweepCase cases[] = {
      {"clean", "single"},       {"clean", "multi8"},
      {"loss", "single"},        {"loss", "multi4"},
      {"loss", "multi8"},        {"loss", "multi8_paced"},
      {"outage", "single"},      {"outage", "multi8"},
      {"loss_outage", "single"}, {"loss_outage", "multi4"},
      {"loss_outage", "multi8"}, {"loss_outage", "multi8_paced"},
  };
  bool first = true;
  double collapse_single = 0.0, collapse_multi = 0.0;
  for (double km : {100.0, 1000.0}) {
    testbed::TestbedOptions opts;
    opts.distance_km = km;
    const double rtt_ms = testbed::Testbed{opts}.wan_rtt().ms();
    for (const SweepCase& c : cases) {
      // The 100 km loss_outage/multi8 run doubles as the obs showcase
      // (probes are read-only, so its numbers match an uninstrumented run).
      const bool obs_run = km == 100.0 &&
                           std::string_view(c.schedule) == "loss_outage" &&
                           std::string_view(c.config) == "multi8";
      const Row r = run_case(km, c.schedule, c.config, obs_run);
      if (km == 100.0 && std::string_view(c.schedule) == "loss") {
        if (std::string_view(c.config) == "single")
          collapse_single = r.goodput_mbps;
        if (std::string_view(c.config) == "multi8")
          collapse_multi = r.goodput_mbps;
      }
      std::printf("%7.0f %12s %13s | %10.3f %9.1f | %6llu %6llu %6llu\n", km,
                  c.schedule, c.config, r.transfer_s, r.goodput_mbps,
                  static_cast<unsigned long long>(r.tcp_retransmits),
                  static_cast<unsigned long long>(r.stream_resets),
                  static_cast<unsigned long long>(r.chunk_resends));
      char row[768];
      std::snprintf(
          row, sizeof row,
          "    {\"distance_km\": %.17g, \"rtt_ms\": %.17g, "
          "\"schedule\": \"%s\", \"config\": \"%s\",\n"
          "     \"transfer_s\": %.17g, \"goodput_mbps\": %.17g,\n"
          "     \"chunks\": %llu, \"chunk_resends\": %llu, "
          "\"stream_resets\": %llu, \"duplicate_chunks\": %llu,\n"
          "     \"paced_delays\": %llu, \"tcp_retransmits\": %llu, "
          "\"tcp_timeouts\": %llu,\n"
          "     \"reassembly_peak_bytes\": %llu, "
          "\"active_streams_final\": %d, \"outage_drops\": %llu}",
          km, rtt_ms, c.schedule, c.config, r.transfer_s, r.goodput_mbps,
          static_cast<unsigned long long>(r.chunks),
          static_cast<unsigned long long>(r.chunk_resends),
          static_cast<unsigned long long>(r.stream_resets),
          static_cast<unsigned long long>(r.duplicate_chunks),
          static_cast<unsigned long long>(r.paced_delays),
          static_cast<unsigned long long>(r.tcp_retransmits),
          static_cast<unsigned long long>(r.tcp_timeouts),
          static_cast<unsigned long long>(r.reassembly_peak),
          r.active_streams_final,
          static_cast<unsigned long long>(r.outage_drops));
      json << (first ? "" : ",\n") << row;
      first = false;
    }
  }
  const double ratio =
      collapse_single > 0.0 ? collapse_multi / collapse_single : 0.0;
  char tail[256];
  std::snprintf(tail, sizeof tail,
                "\n  ],\n  \"collapse_single_mbps\": %.17g,\n"
                "  \"collapse_multi8_mbps\": %.17g,\n"
                "  \"collapse_speedup\": %.17g\n}\n",
                collapse_single, collapse_multi, ratio);
  json << tail;
  json.flush();
  std::printf("loss@100km collapse: single %.1f Mbit/s, multi8 %.1f Mbit/s "
              "(%.1fx)\n",
              collapse_single, collapse_multi, ratio);
  std::printf(json ? "[wrote BENCH_m3_wan_transport.json]\n\n"
                   : "[failed to write BENCH_m3_wan_transport.json]\n\n");
}

}  // namespace

int main() {
  print_m3();
  return 0;
}
