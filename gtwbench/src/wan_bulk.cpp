// wan_bulk: seeded gateway-to-gateway transfers (gw_o200 -> gw_e5000)
// through meta::Metacomputer::wan_send on the default OC-48 testbed — the
// m3/r1 traffic.  One unit = one transfer on its own testbed = one op.
#include <cstdio>
#include <optional>
#include <string>

#include "common.hpp"
#include "meta/metacomputer.hpp"
#include "meta/path_transport.hpp"
#include "net/fault.hpp"
#include "obs/span.hpp"
#include "testbed/testbed.hpp"

namespace gtwbench {

using namespace gtw;

namespace {

constexpr std::uint64_t kSalt = 0x77616e5f62756c6bULL;  // "wan_bulk"
// m3's sustained bit-error rate that collapses a lone Reno stream.
constexpr double kLossBer = 1.3e-7;

enum class Faults { kClean, kLoss, kOutage, kLossOutage };
const char* fault_name(Faults f) {
  switch (f) {
    case Faults::kClean: return "clean";
    case Faults::kLoss: return "loss";
    case Faults::kOutage: return "outage";
    case Faults::kLossOutage: return "loss_outage";
  }
  return "?";
}

struct Scenario {
  std::uint64_t bytes = 0;
  double distance_km = 100.0;
  bool multi8 = false;
  Faults faults = Faults::kClean;
  double outage_at_s = 0.0;
  double outage_for_s = 0.0;
};

// The mix is stratified so that its host cost hardly depends on the seed:
// every 16 consecutive units take each fault schedule x path config x
// distance once, and every 128 take each of those with each of eight 14 MB
// size bands once.  The seed draws the size within its band and the
// outage.  The first eight units already span every fault schedule, both
// path configs, both distances and every size band.
Scenario draw(std::uint64_t seed, std::uint64_t unit) {
  des::Rng rng = unit_rng(seed, unit, kSalt);
  const std::uint64_t cls = unit % 16;
  const std::uint64_t band = (cls + unit / 16) % 8;
  Scenario s;
  s.bytes = (16 + 14 * band + rng.uniform_int(14)) << 20;  // 16..127 MB
  s.faults = static_cast<Faults>(cls % 4);
  s.multi8 = (cls / 4) % 2 == 1;
  s.distance_km = ((cls / 4) ^ (cls / 8)) % 2 == 1 ? 1000.0 : 100.0;
  // The cut lands while even the smallest transfer is still in flight.
  s.outage_at_s = rng.uniform(0.05, 0.2);
  s.outage_for_s = rng.uniform(0.5, 8.0);
  return s;
}

// m3_wan_transport's path configurations: the single-connection default
// and eight striped streams with stall reset and the adaptive controller.
meta::PathConfig path_config(bool multi8, const testbed::Testbed& tb) {
  meta::PathConfig pc;
  pc.tcp.mss = tb.options().atm_mtu - units::Bytes{40};
  pc.tcp.recv_buffer = units::Bytes{4u << 20};
  if (!multi8) return pc;
  pc.streams = 8;
  pc.chunk_bytes = units::Bytes{256u << 10};
  pc.stream_window = units::Bytes{2u << 20};
  pc.chunk_timeout = des::SimTime::milliseconds(400);
  pc.adapt_interval = des::SimTime::milliseconds(500);
  pc.min_streams = 2;
  return pc;
}

}  // namespace

UnitResult run_wan_bulk(std::uint64_t seed, std::uint64_t unit,
                        Tracing tracing) {
  Ledger* const ledger = tracing.ledger;
  const Scenario sc = draw(seed, unit);
  UnitResult r;
  r.scenario = std::to_string(sc.bytes >> 20) + "MB/" +
               std::to_string(static_cast<int>(sc.distance_km)) + "km/" +
               (sc.multi8 ? "multi8/" : "single/") + fault_name(sc.faults);
  if (sc.faults == Faults::kOutage || sc.faults == Faults::kLossOutage) {
    char cut[32];
    std::snprintf(cut, sizeof cut, "(%.1fs)", sc.outage_for_s);
    r.scenario += cut;
  }

  const std::int64_t t_setup = now_ns();
  testbed::TestbedOptions opts;
  opts.distance_km = sc.distance_km;
  testbed::Testbed tb{opts};
  r.testbed_build_ms = static_cast<double>(now_ns() - t_setup) / 1e6;
  des::Scheduler& sched = tb.scheduler();
  meta::Metacomputer mc{sched};
  net::FaultPlan plan(sched);
  obs::SpanTracer tracer;
  // Declared after everything it observes: detaches before they die.
  std::optional<Ledger::Attachment> attached;
  if (ledger != nullptr)
    attached.emplace(*ledger, sched, tracing.spans ? &tracer : nullptr);

  meta::MachineSpec a;
  a.name = "JUELICH";
  a.frontend = &tb.gw_o200();
  meta::MachineSpec b;
  b.name = "GMD";
  b.frontend = &tb.gw_e5000();
  const int ma = mc.add_machine(a);
  const int mb = mc.add_machine(b);
  mc.link_machines(ma, mb, path_config(sc.multi8, tb), 7000);
  meta::PathTransport& path = *mc.wan_path(ma, mb);

  if (sc.faults == Faults::kLoss || sc.faults == Faults::kLossOutage) {
    // Sustained bit errors on the data direction; the burst outlives the
    // transfer, so its end event keeps the queue alive long after delivery.
    plan.ber_burst(tb.wan_link_j_to_g(), des::SimTime::milliseconds(1),
                   des::SimTime::seconds(300), kLossBer);
  }
  if (sc.faults == Faults::kOutage || sc.faults == Faults::kLossOutage) {
    plan.link_down(tb.wan_link_j_to_g(), des::SimTime::seconds(sc.outage_at_s),
                   des::SimTime::seconds(sc.outage_for_s));
  }

  int callbacks = 0;
  des::SimTime done = des::SimTime::zero();
  mc.wan_send(ma, mb, units::Bytes{sc.bytes}, [&] {
    ++callbacks;
    done = sched.now();  // the delivery instant, not the drain instant
  });
  r.setup_s = seconds_since(t_setup);

  const double ms = timed_run(sched, ledger);
  r.op_ms.push_back(ms);
  r.run_ms = ms;

  // Oracle: exactly one completion, every byte delivered, and the
  // transport's ledgers balanced with nothing left in the pipeline.
  const meta::PathTransport::Stats& st = path.stats(0);
  const std::uint64_t expect = sc.bytes + meta::kMetaHeaderBytes;
  if (callbacks != 1) {
    r.failure = "completion callback fired " + std::to_string(callbacks) +
                " times";
  } else if (st.delivered_bytes != expect || st.bytes != expect) {
    r.failure = "delivered " + std::to_string(st.delivered_bytes) + " of " +
                std::to_string(expect) + " bytes";
  } else if (st.messages != 1 || st.delivered_messages != 1 ||
             st.reassembly_bytes != 0 || path.undispatched_chunks(0) != 0 ||
             path.outstanding_chunks(0) != 0 ||
             path.inflight_messages(0) != 0 || !sched.empty()) {
    r.failure = "PathTransport stats do not balance";
  }
  r.ok = r.failure.empty();

  r.delivered_mb = static_cast<double>(sc.bytes) / 1e6;
  r.sim_s = done.sec();
  r.goodput_mbps =
      done.sec() > 0.0 ? static_cast<double>(sc.bytes) * 8.0 / done.sec() / 1e6
                       : 0.0;
  r.events = sched.events_executed();
  r.stream_hash = sched.stream_hash();

  Counters& c = r.counters;
  count_testbed(tb, c);
  for (int s = 0; s < path.stream_count(); ++s) {
    for (int side = 0; side < 2; ++side) {
      const auto ss = path.stream_stats(side, s);
      c.tcp_retransmits += ss.tcp_retransmits;
      c.tcp_timeouts += ss.tcp_timeouts;
    }
  }
  c.tcp_payload_bytes = expect;
  c.tcp_resent_bytes = c.tcp_retransmits * path.config().tcp.mss.count();
  c.meta_chunks = st.chunks;
  c.meta_resends = st.chunk_resends;
  c.meta_duplicates = st.duplicate_chunks;
  c.meta_resets = st.stream_resets;
  c.pending_peak = sched.pool_high_water();

  if (tracing.spans) add_budget(tracer, r);
  return r;
}

}  // namespace gtwbench
