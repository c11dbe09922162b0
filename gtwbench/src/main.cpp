// gtw_bench: the simulator's cost harness.
//
//   gtw_bench --workload <wan_bulk|fire_realtime|national_star> --seed <n>
//             --seconds <s> --trace <0|1> [--units <n>]
//
// --trace 0 repeats a fixed pass of seeded scenario units untraced until
// --seconds have passed, keeps each op's fastest repeat and prints the
// end-to-end metrics.  --trace 1 runs a fixed number of units (so its
// counts are deterministic per seed), each once untraced, once under the
// per-layer ledger and, where the span volume allows, once more with the
// ledger forwarding to an obs::SpanTracer; it checks that every pass
// agrees on every simulated result and prints the per-layer metrics.
// --units sets the units of a pass or of a traced run.  The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "common.hpp"
#include "des/span_hook.hpp"

namespace gtwbench {
namespace {

using UnitFn = UnitResult (*)(std::uint64_t, std::uint64_t, Tracing);

struct Workload {
  const char* name;
  UnitFn run;
  std::uint64_t pass_units;   // units of one pass of a --trace 0 run
  std::uint64_t trace_units;  // units of a --trace 1 run
  bool span_pass;             // also run under a forwarded obs::SpanTracer
};

// A --trace 0 run repeats one pass of units until --seconds have passed
// (at least kMinPasses times) and keeps, op by op, the fastest repeat.  On
// a shared host whose speed drops by up to 1.5x for seconds to minutes at
// a time, the fastest of repeats spread over the run is the fast phase's
// time unless the whole run falls in a slow phase; a mean or median over
// the run moves with the share of time spent slow.  A pass takes 1-3 s on
// one core of a 2020s x86 server: wan_bulk's 128 units are one whole cycle
// of its stratified mix.
//
// Trace units are sized so a traced run takes 10-40 s.  (obs::budget's
// sweep is quadratic in the spans of a trace, ~1 s for one 128 MB
// transfer, which bounds wan_bulk's count.)  national_star has no span
// pass: at ~16 spans per datagram a tracer would hold ~5M spans.
constexpr Workload kWorkloads[] = {
    {"wan_bulk", run_wan_bulk, 128, 8, true},
    {"fire_realtime", run_fire_realtime, 1, 4, true},
    {"national_star", run_national_star, 1, 1, false},
};
constexpr std::uint64_t kMinPasses = 2;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t units = 0;  // 0: time-bound (untraced) or trace_units
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gtw_bench: %s\nusage: gtw_bench --workload "
               "<wan_bulk|fire_realtime|national_star> --seed N --seconds S "
               "--trace 0|1 [--units N]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, val) == 0) a.workload = &w;
      if (a.workload == nullptr) usage("unknown workload");
      continue;
    }
    if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
      continue;
    }
    const unsigned long long n = std::strtoull(val, &end, 10);
    if (*end != '\0' || *val == '\0') usage(("bad value for " + key).c_str());
    if (key == "--seed") {
      a.seed = n;
    } else if (key == "--trace") {
      if (n > 1) usage("--trace takes 0 or 1");
      a.trace = n == 1;
    } else if (key == "--units") {
      a.units = n;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  return a;
}

// Linear-interpolation quantile (the numpy default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Peak resident set of this process image.  getrusage's ru_maxrss is not
// used: it keeps the high-water mark of the forking parent across exec, so
// a small workload would report the Python launcher's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
      out += (i == 0 ? "\"" : ", \"") + items_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

// Digest of every unit's event count and Scheduler::stream_hash.
std::uint64_t stream_digest(const std::vector<UnitResult>& units) {
  std::uint64_t d = 14695981039346656037ULL;
  for (const UnitResult& u : units) d = fnv(fnv(d, u.events), u.stream_hash);
  return d;
}

bool same_model(const UnitResult& a, const UnitResult& b) {
  return a.events == b.events && a.stream_hash == b.stream_hash &&
         a.sim_s == b.sim_s && a.goodput_mbps == b.goodput_mbps &&
         a.mean_total_delay_s == b.mean_total_delay_s &&
         a.delivered_mb == b.delivered_mb && a.op_ms.size() == b.op_ms.size();
}

void print_model(const std::vector<UnitResult>& units) {
  double sim = 0.0, goodput = 0.0, delay = 0.0;
  std::uint64_t events = 0;
  for (const UnitResult& u : units) {
    sim += u.sim_s;
    goodput += u.goodput_mbps;
    delay += u.mean_total_delay_s;
    events += u.events;
  }
  const double n = static_cast<double>(units.size());
  std::printf("model: {\"units\": %zu, \"events\": %" PRIu64
              ", \"sim_s\": %.17g, \"goodput_mbps\": %.17g, "
              "\"mean_total_delay_s\": %.17g, \"stream_digest\": \"%016" PRIx64
              "\"}\n",
              units.size(), events, sim, ratio(goodput, n), ratio(delay, n),
              stream_digest(units));
}

// Folds a repeat of a unit into the fastest times kept for it.  A repeat
// must reproduce the unit's simulated result exactly.  Returns whether the
// repeat passed.
bool keep_fastest(UnitResult& best, const UnitResult& r) {
  if (!best.ok) return r.ok;
  if (r.ok && !same_model(best, r)) {
    best.ok = false;
    best.failure = "a repeat changed the simulated result";
    return false;
  }
  if (!r.ok) {
    if (best.ok) best.failure = r.failure;
    best.ok = false;
    return false;
  }
  best.setup_s = std::min(best.setup_s, r.setup_s);
  best.run_ms = 0.0;
  for (std::size_t i = 0; i < best.op_ms.size(); ++i) {
    best.op_ms[i] = std::min(best.op_ms[i], r.op_ms[i]);
    best.run_ms += best.op_ms[i];
  }
  return true;
}

// `units` hold each unit's fastest repeat, op by op.  Op time is reported
// as the mean over the pass's ops; the median and p90 are printed for
// reading.
void end_to_end(Metrics& m, const std::vector<UnitResult>& units) {
  std::vector<double> setup, ops;
  double op_s = 0.0, mb = 0.0;
  for (const UnitResult& u : units) {
    setup.push_back(u.setup_s);
    for (double ms : u.op_ms) {
      ops.push_back(ms);
      op_s += ms / 1e3;
    }
    mb += u.delivered_mb;
  }
  std::printf("ops: p50 %.4f ms, p90 %.4f ms over %zu ops\n",
              quantile(ops, 0.5), quantile(ops, 0.9), ops.size());
  m.add("setup_s", quantile(setup, 0.5), "s");
  m.add("op_ms.mean", ratio(op_s * 1e3, static_cast<double>(ops.size())),
        "ms");
  m.add("delivered_mb_per_s", ratio(mb, op_s), "MB/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void per_layer(Metrics& m, const Ledger::Totals& t,
               const Ledger::Totals& spans_totals,
               const std::vector<UnitResult>& plain,
               const std::vector<UnitResult>& traced,
               const std::vector<UnitResult>& spanned) {
  const auto events = static_cast<double>(t.events);
  double plain_run_ms = 0.0, plain_events = 0.0, traced_run_ms = 0.0;
  for (const UnitResult& u : plain) {
    plain_run_ms += u.run_ms;
    plain_events += static_cast<double>(u.events);
  }
  Counters c;
  std::vector<double> testbed_ms, national_ms;
  std::map<std::string, std::vector<double>> kernel_ms;
  double sim = 0.0, goodput = 0.0, delay = 0.0;
  for (const UnitResult& u : traced) {
    traced_run_ms += u.run_ms;
    const Counters& x = u.counters;
    c.link_frames += x.link_frames;
    c.link_drops += x.link_drops;
    c.host_packets += x.host_packets;
    c.tcp_retransmits += x.tcp_retransmits;
    c.tcp_timeouts += x.tcp_timeouts;
    c.tcp_payload_bytes += x.tcp_payload_bytes;
    c.tcp_resent_bytes += x.tcp_resent_bytes;
    c.meta_chunks += x.meta_chunks;
    c.meta_resends += x.meta_resends;
    c.meta_duplicates += x.meta_duplicates;
    c.meta_resets += x.meta_resets;
    c.flow_admitted += x.flow_admitted;
    c.flow_superseded += x.flow_superseded;
    c.pending_peak = std::max(c.pending_peak, x.pending_peak);
    if (u.testbed_build_ms >= 0.0) testbed_ms.push_back(u.testbed_build_ms);
    if (u.national_build_ms >= 0.0) national_ms.push_back(u.national_build_ms);
    for (const auto& [k, v] : u.kernel_ms)
      kernel_ms[k].insert(kernel_ms[k].end(), v.begin(), v.end());
    sim += u.sim_s;
    goodput += u.goodput_mbps;
    delay += u.mean_total_delay_s;
  }

  // Host time the simulation itself spent: the scheduler's own share of
  // the run wall plus every layer's action and segment time.  The ledger's
  // and the forwarded tracer's time is excluded, and so is the one clock
  // read each gap between two events contains.
  const double queue_ns =
      std::max(0.0, static_cast<double>(t.run_ns - t.bracket_ns) -
                        events * t.clock_read_ns);
  double sim_ns = queue_ns;
  double event_allocs = 0.0, event_bytes = 0.0;
  for (std::size_t l = 0; l < kLayers; ++l) {
    sim_ns += static_cast<double>(t.layer[l].ns);
    if (t.layer[l].events > 0) {
      event_allocs += static_cast<double>(t.layer[l].allocs);
      event_bytes += static_cast<double>(t.layer[l].alloc_bytes);
    }
  }
  auto cost = [&](Layer l) -> const Ledger::LayerCost& {
    return t.layer[static_cast<std::size_t>(l)];
  };

  m.add("des.events", events, "count");
  m.add("des.scheduled", static_cast<double>(t.scheduled), "count");
  m.add("des.fired_per_scheduled",
        ratio(events, static_cast<double>(t.scheduled)), "ratio");
  m.add("des.ns_per_event", ratio(plain_run_ms * 1e6, plain_events), "ns");
  m.add("des.queue_ns_per_event", ratio(queue_ns, events), "ns");
  m.add("des.queue_share", ratio(queue_ns, sim_ns), "ratio");
  m.add("des.pending_peak", static_cast<double>(c.pending_peak), "count");
  m.add("des.allocs_per_event", ratio(event_allocs, events), "count");
  m.add("des.alloc_bytes_per_event", ratio(event_bytes, events), "B");
  const auto unattributed =
      static_cast<double>(cost(Layer::kUnattributed).events);
  m.add("des.unattributed_events", unattributed, "count");
  m.add("des.unattributed_share", ratio(unattributed, events), "ratio");

  for (Layer l : {Layer::kLink, Layer::kAtm, Layer::kHost, Layer::kTcp,
                  Layer::kMeta, Layer::kFlow}) {
    const Ledger::LayerCost& lc = cost(l);
    const std::string n = layer_name(l);
    const auto ev = static_cast<double>(lc.events);
    m.add(n + ".events", ev, "count");
    m.add(n + ".ns_per_event", ratio(static_cast<double>(lc.ns), ev), "ns");
    m.add(n + ".allocs_per_event", ratio(static_cast<double>(lc.allocs), ev),
          "count");
    m.add(n + ".share", ratio(static_cast<double>(lc.ns), sim_ns), "ratio");
  }
  m.add("link.frames", static_cast<double>(c.link_frames), "count");
  m.add("link.drops", static_cast<double>(c.link_drops), "count");
  m.add("host.packets", static_cast<double>(c.host_packets), "count");
  m.add("tcp.retransmits", static_cast<double>(c.tcp_retransmits), "count");
  m.add("tcp.timeouts", static_cast<double>(c.tcp_timeouts), "count");
  m.add("tcp.useful_byte_ratio",
        ratio(static_cast<double>(c.tcp_payload_bytes),
              static_cast<double>(c.tcp_payload_bytes + c.tcp_resent_bytes)),
        "ratio");
  m.add("meta.chunks", static_cast<double>(c.meta_chunks), "count");
  m.add("meta.useful_chunk_ratio",
        ratio(static_cast<double>(c.meta_chunks),
              static_cast<double>(c.meta_chunks + c.meta_resends +
                                  c.meta_duplicates)),
        "ratio");
  m.add("meta.stream_resets", static_cast<double>(c.meta_resets), "count");
  m.add("flow.admitted", static_cast<double>(c.flow_admitted), "count");
  m.add("flow.superseded", static_cast<double>(c.flow_superseded), "count");

  auto segments = [&](Layer l) -> const std::vector<double>& {
    return t.segment_ms[static_cast<std::size_t>(l)];
  };
  m.add("scanner.acquire_ms", quantile(segments(Layer::kScanner), 0.5), "ms");
  m.add("scanner.share",
        ratio(static_cast<double>(cost(Layer::kScanner).ns), sim_ns), "ratio");
  m.add("fire.process_scan_ms", quantile(segments(Layer::kFire), 0.5), "ms");
  for (const char* k : {"median", "motion", "detrend", "correlation"})
    m.add(std::string("fire.") + k + "_ms", quantile(kernel_ms[k], 0.5),
          "ms");
  m.add("fire.share",
        ratio(static_cast<double>(cost(Layer::kFire).ns), sim_ns), "ratio");

  m.add("testbed.build_ms", quantile(testbed_ms, 0.5), "ms");
  // Only national_star builds the star; it is not among the gated workloads.
  if (!national_ms.empty())
    m.add("national.build_ms", quantile(national_ms, 0.5), "ms");

  std::map<std::string, std::int64_t> budget_ps;
  std::int64_t budget_total = 0;
  double spanned_run_ms = 0.0;
  for (const UnitResult& u : spanned) {
    spanned_run_ms += u.run_ms;
    for (const auto& [k, v] : u.budget_ps) budget_ps[k] += v;
    budget_total += u.budget_total_ps;
  }
  m.add("obs.span_calls", static_cast<double>(t.hook_calls), "count");
  m.add("obs.ns_per_call",
        ratio(static_cast<double>(spans_totals.forward_ns),
              static_cast<double>(spans_totals.forward_calls)),
        "ns");
  m.add("obs.overhead_pct",
        spanned.empty()
            ? 0.0
            : ratio(spanned_run_ms - plain_run_ms, plain_run_ms) * 100.0,
        "%");
  m.add("trace.overhead_pct",
        ratio(traced_run_ms - plain_run_ms, plain_run_ms) * 100.0, "%");

  const double n = static_cast<double>(traced.size());
  m.add("model.sim_s", sim, "s");
  m.add("model.goodput_mbps", ratio(goodput, n), "Mbit/s");
  m.add("model.mean_total_delay_s", ratio(delay, n), "s");
  m.add("model.makespan_s", ratio(sim, n), "s");
  // 48 bits, so the digest survives the trip through a JSON double.
  m.add("model.stream_digest",
        static_cast<double>(stream_digest(traced) & 0xffffffffffffULL),
        "hash");
  for (int p = 0; p <= static_cast<int>(gtw::des::SpanPhase::kAborted); ++p) {
    const std::string phase =
        gtw::des::span_phase_name(static_cast<gtw::des::SpanPhase>(p));
    const auto it = budget_ps.find(phase);
    m.add("model.budget." + phase + "_share",
          ratio(it == budget_ps.end() ? 0.0 : static_cast<double>(it->second),
                static_cast<double>(budget_total)),
          "ratio");
  }
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  const std::uint64_t n =
      args.units > 0 ? args.units : (args.trace ? w.trace_units : w.pass_units);
  std::vector<UnitResult> plain, traced, spanned;
  std::uint64_t runs = 0, attempted = 0, failed = 0;
  Ledger ledger, span_ledger;
  // A traced pass must reproduce the untraced one exactly.
  auto check = [&](UnitResult& r) {
    if (r.ok && !same_model(plain.back(), r)) {
      r.ok = false;
      r.failure = "attaching the ledger changed the simulated result";
    }
  };
  const std::int64_t start = now_ns();
  // Untraced: passes over units 0..n-1 until --seconds, keeping the
  // fastest repeat of each.  Every repeat counts as attempted.
  for (std::uint64_t k = 0; !args.trace; ++k, ++runs) {
    if (k >= n * kMinPasses && seconds_since(start) >= args.seconds) break;
    UnitResult r = w.run(args.seed, k % n, Tracing{});
    const auto ops = static_cast<std::uint64_t>(r.op_ms.size());
    attempted += ops;
    if (k < n) {
      if (!r.ok) failed += ops;
      plain.push_back(std::move(r));
    } else if (!keep_fastest(plain[k % n], r)) {
      failed += ops;
    }
  }
  // Traced: each unit once untraced, once under the ledger and, where the
  // span volume allows, once more forwarding to an obs::SpanTracer.
  for (std::uint64_t u = 0; args.trace && u < n; ++u, ++runs) {
    plain.push_back(w.run(args.seed, u, Tracing{}));
    alloc::set_counting(true);
    traced.push_back(w.run(args.seed, u, Tracing{&ledger, false}));
    alloc::set_counting(false);
    check(traced.back());
    if (w.span_pass) {
      spanned.push_back(w.run(args.seed, u, Tracing{&span_ledger, true}));
      check(spanned.back());
      if (!spanned.back().ok && traced.back().ok) {
        traced.back().ok = false;
        traced.back().failure = spanned.back().failure;
      }
    }
    const UnitResult& t = traced.back();
    attempted += t.op_ms.size();
    if (!(t.ok && plain.back().ok)) failed += t.op_ms.size();
  }

  const std::vector<UnitResult>& reported = args.trace ? traced : plain;
  std::string mix;
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const UnitResult& u = reported[i];
    if (!(u.ok && plain[i].ok))
      std::printf("FAIL unit %zu (%s): %s\n", i, u.scenario.c_str(),
                  (u.ok ? plain[i] : u).failure.c_str());
    if (i < 16) mix += (i == 0 ? "" : " | ") + u.scenario;
  }
  std::printf("gtwbench: workload=%s seed=%" PRIu64
              " trace=%d units=%zu runs=%" PRIu64 " ops=%" PRIu64
              " failed=%" PRIu64 " wall=%.3fs\n",
              w.name, args.seed, args.trace ? 1 : 0, reported.size(), runs,
              attempted, failed, seconds_since(start));
  std::printf("scenarios: %s\n", mix.c_str());
  print_model(reported);

  Metrics m;
  if (args.trace)
    per_layer(m, ledger.totals(), span_ledger.totals(), plain, traced,
              spanned);
  else
    end_to_end(m, plain);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              m.json().c_str());
  return 0;
}

}  // namespace
}  // namespace gtwbench

int main(int argc, char** argv) {
  return gtwbench::run(gtwbench::parse(argc, argv));
}
