// Observability layer: registry semantics (collisions, stable ordering),
// DES-clock sampling, Chrome trace export from spans artifacts (golden
// files + >65k flow-id stress), and the guarantee that instrumentation
// never perturbs the simulation it observes.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "des/scheduler.hpp"
#include "flow/graph.hpp"
#include "flow/stage.hpp"
#include "meta/path_transport.hpp"
#include "net/atm.hpp"
#include "net/fault.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"
#include "obs/exporter.hpp"
#include "obs/instrument.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"

#ifndef GTW_GOLDEN_DIR
#define GTW_GOLDEN_DIR "tests/golden"
#endif

namespace gtw {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(GTW_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------- registry

// Counters and gauge probes; the registry keeps no histograms.
TEST(ObsRegistryTest, CounterGaugeHistogramBasics) {
  obs::Registry reg;
  reg.counter("a.events").add();
  reg.counter("a.events").add(4);
  reg.probe_gauge("a.level", [] { return 0.75; });

  EXPECT_EQ(reg.counter("a.events").value(), 5u);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_DOUBLE_EQ(reg.read("a.events"), 5.0);
  EXPECT_DOUBLE_EQ(reg.read("a.level"), 0.75);
}

TEST(ObsRegistryTest, NameCollisionAcrossKindsThrows) {
  obs::Registry reg;
  reg.counter("x");
  EXPECT_NO_THROW(reg.counter("x"));  // define-or-fetch, same kind
  EXPECT_THROW(reg.probe_gauge("x", [] { return 1.0; }), std::logic_error);
  EXPECT_THROW(reg.probe_counter("x", [] { return std::uint64_t{0}; }),
               std::logic_error);

  reg.probe_gauge("p", [] { return 1.0; });
  EXPECT_THROW(reg.probe_gauge("p", [] { return 2.0; }), std::logic_error);
  EXPECT_THROW(reg.counter("p"), std::logic_error);

  reg.probe_counter("q", [] { return std::uint64_t{1}; });
  EXPECT_THROW(reg.counter("q"), std::logic_error);  // a probe, not a counter
}

TEST(ObsRegistryTest, SnapshotIsLexicographicallyOrderedAndStable) {
  obs::Registry reg;
  // Deliberately defined out of order.
  reg.counter("net.link.z.tx");
  reg.probe_gauge("fire.stage.a.occupancy", [] { return 0.5; });
  reg.counter("net.link.a.tx");
  reg.probe_counter("meta.comm.messages", [] { return std::uint64_t{7}; });

  std::vector<std::string> names;
  for (const auto& s : reg.snapshot()) names.push_back(s.name);
  const std::vector<std::string> expect = {
      "fire.stage.a.occupancy", "meta.comm.messages", "net.link.a.tx",
      "net.link.z.tx"};
  EXPECT_EQ(names, expect);

  // A second snapshot yields the identical order (stable exports).
  std::vector<std::string> names2;
  for (const auto& s : reg.snapshot()) names2.push_back(s.name);
  EXPECT_EQ(names, names2);
}

TEST(ObsRegistryTest, ProbesAreEvaluatedAtReadTime) {
  obs::Registry reg;
  std::uint64_t v = 1;
  reg.probe_counter("live", [&v] { return v; });
  EXPECT_DOUBLE_EQ(reg.read("live"), 1.0);
  v = 42;
  EXPECT_DOUBLE_EQ(reg.read("live"), 42.0);
  EXPECT_THROW(reg.read("unknown"), std::out_of_range);
}

// ----------------------------------------------------------------- sampler

TEST(ObsSamplerTest, SamplesOnTheDesClock) {
  des::Scheduler sched;
  obs::Registry reg;
  std::uint64_t work = 0;
  reg.probe_counter("work.done", [&work] { return work; });
  for (int i = 1; i <= 10; ++i)
    sched.schedule_at(des::SimTime::milliseconds(10 * i),
                      [&work] { ++work; });

  obs::TimeSeriesSampler sampler(sched, reg);
  sampler.watch("work.done");
  EXPECT_THROW(sampler.watch("no.such"), std::out_of_range);
  sampler.sample_every(des::SimTime::milliseconds(25),
                       des::SimTime::milliseconds(100));
  sched.run();

  const auto& series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  // t = 0, 25, 50, 75, 100 ms -> 0, 2, 5, 7, 10 events done.
  const std::vector<std::pair<std::int64_t, double>> expect = {
      {0, 0.0},
      {25'000'000'000, 2.0},
      {50'000'000'000, 5.0},
      {75'000'000'000, 7.0},
      {100'000'000'000, 10.0}};
  EXPECT_EQ(series[0].points, expect);
  EXPECT_EQ(sampler.samples_taken(), 5u);
}

// ------------------------------------------------------------- tcp fixture

// Two hosts across one ATM switch (same shape as net_tcp_test's fixture);
// the egress toward b is the bottleneck.
struct TcpFixture {
  des::Scheduler sched;
  net::Host a;
  net::Host b;
  net::AtmSwitch sw;
  net::AtmNic nic_a;
  net::AtmNic nic_b;
  net::VcAllocator vcs;
  int pa = -1, pb = -1;

  TcpFixture()
      : a(sched, "a", 1), b(sched, "b", 2), sw(sched, "sw"),
        nic_a(sched, a, "a.atm",
              net::Link::Config{units::BitRate::mbps(622.0),
                                des::SimTime::microseconds(250),
                                units::Bytes{16u << 20}, des::SimTime::zero()},
              net::kMtuAtmDefault),
        nic_b(sched, b, "b.atm",
              net::Link::Config{units::BitRate::mbps(622.0),
                                des::SimTime::microseconds(250),
                                units::Bytes{16u << 20}, des::SimTime::zero()},
              net::kMtuAtmDefault) {
    pa = sw.add_port(net::Link::Config{units::BitRate::mbps(622.0),
                                       des::SimTime::microseconds(250),
                                       units::Bytes{16u << 20},
                                       des::SimTime::zero()});
    pb = sw.add_port(net::Link::Config{units::BitRate::mbps(155.0),
                                       des::SimTime::microseconds(250),
                                       units::Bytes{4u << 20},
                                       des::SimTime::zero()});
    sw.connect_ingress(pa, nic_a.uplink());
    sw.connect_ingress(pb, nic_b.uplink());
    sw.connect_egress(pa, nic_a.ingress());
    sw.connect_egress(pb, nic_b.ingress());
    vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
    a.add_route(2, &nic_a, 2);
    b.add_route(1, &nic_b, 1);
  }

  // Drop exactly the n-th MTU-sized data frame leaving a toward the switch.
  void drop_nth_data_frame(int n) {
    net::FrameSink pass = nic_a.uplink().sink();
    auto count = std::make_shared<int>(0);
    nic_a.uplink().set_sink([pass, count, n](net::Frame fr) {
      if (fr.wire_bytes > 1000 && ++*count == n) return;
      pass(std::move(fr));
    });
  }
};

// The sampled cwnd trajectory must be exactly the Reno trace the connection
// itself reports — probe-path and direct-path reads agree at every sample
// point, and the multiplicative decrease after a fast retransmit shows up.
TEST(ObsTcpInstrumentationTest, CwndSamplesMatchRenoTrace) {
  TcpFixture f;
  net::TcpConnection conn(f.a, f.b, 100, 200);
  obs::Registry reg;
  reg.probe_gauge("tcp.c.0.cwnd_bytes",
                  [&conn] { return conn.stats(0).cwnd_bytes; });
  reg.probe_gauge("tcp.c.0.ssthresh_bytes",
                  [&conn] { return conn.stats(0).ssthresh_bytes; });

  obs::TimeSeriesSampler sampler(f.sched, reg);
  sampler.watch("tcp.c.0.cwnd_bytes");
  sampler.watch("tcp.c.0.ssthresh_bytes");
  const des::SimTime period = des::SimTime::milliseconds(5);
  const des::SimTime until = des::SimTime::seconds(2);
  sampler.sample_every(period, until);

  // Reference Reno trace, recorded independently of the registry at the
  // same instants (ties resolve in insertion order; both reads are pure).
  auto reference = std::make_shared<std::vector<std::pair<double, double>>>();
  for (des::SimTime t = des::SimTime::zero(); t <= until; t += period)
    f.sched.schedule_at(t, [&conn, reference] {
      reference->emplace_back(conn.stats(0).cwnd_bytes,
                              conn.stats(0).ssthresh_bytes);
    });

  f.drop_nth_data_frame(30);  // one loss -> 3 dup ACKs -> fast retransmit
  bool delivered = false;
  conn.send(0, units::Bytes{6u << 20}, {},
            [&](const std::any&, des::SimTime) { delivered = true; });
  f.sched.run();
  ASSERT_TRUE(delivered);

  const auto& cwnd = sampler.series()[0].points;
  const auto& ssthresh = sampler.series()[1].points;
  ASSERT_EQ(cwnd.size(), reference->size());
  ASSERT_EQ(ssthresh.size(), reference->size());
  for (std::size_t i = 0; i < cwnd.size(); ++i) {
    EXPECT_DOUBLE_EQ(cwnd[i].second, (*reference)[i].first) << "sample " << i;
    EXPECT_DOUBLE_EQ(ssthresh[i].second, (*reference)[i].second)
        << "sample " << i;
  }

  // The loss actually exercised Reno: duplicate ACKs counted, one fast
  // retransmit, and a visible multiplicative decrease in the trajectory.
  const auto stats = conn.stats(0);
  EXPECT_GE(stats.dup_acks, 3u);
  EXPECT_EQ(stats.fast_retransmits, 1u);
  EXPECT_GE(stats.retransmits, 1u);
  bool decreased = false;
  for (std::size_t i = 1; i < cwnd.size(); ++i)
    if (cwnd[i].second < cwnd[i - 1].second) decreased = true;
  EXPECT_TRUE(decreased);
  // Final probe reads agree with the connection's own accounting.
  EXPECT_DOUBLE_EQ(reg.read("tcp.c.0.cwnd_bytes"), stats.cwnd_bytes);
  EXPECT_DOUBLE_EQ(reg.read("tcp.c.0.ssthresh_bytes"), stats.ssthresh_bytes);
  EXPECT_GT(stats.ssthresh_bytes, 0.0);
}

// Attaching every instrument_* and bridge_*, attach_fault_plan and a
// periodic sampler of every instrument must not change a single simulation
// outcome (read-only probes and a counting fault observer; sampler events
// do not shift other events).  Both runs build the same world: a TCP
// transfer with one lost frame, a two-stream PathTransport message, a
// one-stage flow graph and a short outage of the bottleneck link.
TEST(ObsTcpInstrumentationTest, InstrumentationDoesNotPerturbSimulation) {
  auto run = [](bool instrumented) {
    TcpFixture f;
    net::TcpConnection conn(f.a, f.b, 100, 200);
    meta::PathConfig pcfg;
    pcfg.streams = 2;
    meta::PathTransport path(f.sched, f.a, f.b, 7000, pcfg);
    flow::StageGraph graph(f.sched);
    graph.add_stage(flow::delay_stage("hold", des::SimTime::milliseconds(3)));
    net::FaultPlan plan(f.sched);
    plan.link_down(f.sw.egress_link(f.pb), des::SimTime::milliseconds(40),
                   des::SimTime::milliseconds(2));
    obs::Registry reg;
    obs::TimeSeriesSampler sampler(f.sched, reg);
    if (instrumented) {
      obs::instrument_scheduler(reg, f.sched);
      obs::instrument_link(reg, f.nic_a.uplink(), "net.link.a_up");
      obs::instrument_host(reg, f.a);
      obs::instrument_host(reg, f.b);
      obs::instrument_atm_switch(reg, f.sw);
      obs::instrument_path_transport(reg, path, "ab");
      obs::bridge_flow_metrics(reg, graph.metrics(), "flow");
      obs::attach_fault_plan(reg, plan);
      sampler.watch_prefix("");
      sampler.sample_every(des::SimTime::milliseconds(1),
                           des::SimTime::seconds(2));
    }
    f.drop_nth_data_frame(30);
    des::SimTime done, path_done;
    conn.send(0, units::Bytes{6u << 20}, {},
              [&](const std::any&, des::SimTime t) { done = t; });
    path.send(0, units::Bytes{2u << 20},
              [&path_done, &f] { path_done = f.sched.now(); });
    graph.push(0);
    f.sched.run();
    EXPECT_EQ(graph.metrics().stage(0).items_out, 1u);
    if (instrumented) {
      EXPECT_GT(sampler.series().size(), 50u);
      EXPECT_DOUBLE_EQ(reg.read("fault.begins"), 1.0);
    }
    return std::make_tuple(done, conn.stats(0).segments_sent, path_done,
                           path.stats(0).chunks);
  };
  EXPECT_EQ(run(false), run(true));
}

// --------------------------------------------------------------- exporters

// A state span on `lane` under `ctx`.
std::uint64_t lane_state(obs::SpanTracer& t, des::TraceContext ctx,
                         std::uint32_t lane, des::SimTime at) {
  const std::uint64_t id =
      t.begin_span(ctx, des::SpanPhase::kCompute, "flow", "compute", at);
  t.set_lane(id, des::Lane{lane});
  return id;
}

TEST(ObsChromeExportTest, EmptyTraceMatchesGolden) {
  std::ostringstream os;
  obs::write_chrome_trace(os, obs::SpanFile{});
  EXPECT_EQ(os.str(), read_golden("chrome_empty.json")) << os.str();
}

TEST(ObsChromeExportTest, SmallTraceMatchesGolden) {
  obs::SpanTracer t;
  const des::TraceContext ctx = t.mint("test", des::SimTime::milliseconds(1));
  const std::uint64_t c0 = lane_state(t, ctx, 0, des::SimTime::milliseconds(1));
  const des::TraceContext sent = t.send_message(
      des::under(ctx, c0), "flow", 0, 1, 4096, des::SimTime::milliseconds(2));
  t.end_span(c0, des::SimTime::milliseconds(2));
  const std::uint64_t c1 =
      lane_state(t, ctx, 1, des::SimTime::microseconds(2500));
  // Sub-microsecond timestamp: exercises the exact integer ts formatting.
  t.recv_message(sent, "flow", 1, des::SimTime::picoseconds(2'500'000'001));
  t.end_span(c1, des::SimTime::milliseconds(4));
  t.close_trace(ctx, des::SimTime::milliseconds(4));
  obs::Registry reg;
  reg.mark("fault.link_down.wan", des::SimTime::milliseconds(3), true);

  std::ostringstream os;
  obs::ChromeTraceOptions opts;
  opts.marks_from = &reg;
  obs::write_chrome_trace(os, t.file(), opts);
  EXPECT_EQ(os.str(), read_golden("chrome_small.json")) << os.str();
}

TEST(ObsChromeExportTest, MetricsJsonMatchesGolden) {
  obs::Registry reg;
  reg.counter("net.link.wan.tx_bytes").add(123456789);
  // An exactly-representable double so the %.17g golden is portable.
  reg.probe_gauge("net.link.wan.utilization", [] { return 0.640625; });
  reg.mark("fault.link_down.wan", des::SimTime::seconds(15), true);
  reg.mark("fault.link_down.wan", des::SimTime::seconds(17), false);

  std::ostringstream os;
  obs::write_metrics_json(os, reg, "golden");
  EXPECT_EQ(os.str(), read_golden("metrics_small.json")) << os.str();
}

// load_metrics reads back every metric write_metrics_json writes, with
// the value text as written (gtw-trace prints only the des.sched.* ones).
TEST(ObsChromeExportTest, MetricsJsonLoadsBack) {
  std::istringstream in(read_golden("metrics_small.json"));
  std::vector<obs::MetricRec> metrics;
  std::string error;
  ASSERT_TRUE(obs::load_metrics(in, "golden", metrics, error)) << error;
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].name, "net.link.wan.tx_bytes");
  EXPECT_EQ(metrics[0].value, "123456789");
  EXPECT_EQ(metrics[1].name, "net.link.wan.utilization");
  EXPECT_EQ(metrics[1].value, "0.640625");
}

// Traces beyond 65k flow ids must export with unique ids and stay
// byte-deterministic (a 16-bit id counter would silently wrap here).
TEST(ObsChromeExportTest, LargeTraceExportsAllEventsDeterministically) {
  const int kPairs = 16'500;  // 3 spans each -> 49'500 span edges
  obs::SpanTracer t;
  const des::TraceContext ctx = t.mint("test", des::SimTime::zero());
  for (int i = 0; i < kPairs; ++i) {
    const des::SimTime at = des::SimTime::microseconds(10 * i);
    const des::SimTime until = at + des::SimTime::microseconds(5);
    const std::uint64_t work = lane_state(t, ctx, 0, at);
    const des::TraceContext sent =
        t.send_message(des::under(ctx, work), "flow", 0, 1, 64, at);
    t.recv_message(sent, "flow", 1, until);
    t.end_span(work, until);
  }
  t.close_trace(ctx, des::SimTime::microseconds(10 * kPairs));
  const obs::SpanFile& f = t.file();
  ASSERT_EQ(f.spans.size(), 1u + 3u * kPairs);

  std::ostringstream os1, os2;
  obs::write_chrome_trace(os1, f);
  obs::write_chrome_trace(os2, f);
  const std::string json = os1.str();
  EXPECT_EQ(json, os2.str());  // byte-identical double export

  auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
      ++n;
    return n;
  };
  // Every span on its trace track, the work spans again on lane 0.
  EXPECT_EQ(count("\"ph\":\"X\""), f.spans.size() + kPairs);
  // One arrow per span edge plus one per message, every id distinct.
  const std::size_t flows = (f.spans.size() - 1) + kPairs;
  EXPECT_EQ(count("\"ph\":\"s\""), flows);
  EXPECT_EQ(count("\"ph\":\"f\""), flows);
  // The last message arrow takes id spans + the last recv's id: no wrap.
  EXPECT_NE(json.find("\"id\":" + std::to_string(2 * f.spans.size()) + ","),
            std::string::npos);
}

TEST(ObsSeriesExportTest, SeriesJsonAndCsvAreStable) {
  des::Scheduler sched;
  obs::Registry reg;
  std::uint64_t n = 0;
  reg.probe_counter("n", [&n] { return n; });
  obs::TimeSeriesSampler sampler(sched, reg);
  sampler.watch("n");
  sched.schedule_at(des::SimTime::milliseconds(1), [&n] { n = 3; });
  sampler.sample_every(des::SimTime::milliseconds(2),
                       des::SimTime::milliseconds(4));
  sched.run();

  std::ostringstream js;
  obs::write_series_json(js, sampler);
  EXPECT_EQ(js.str(),
            "{\n  \"series\": [\n    {\"name\": \"n\", \"points\": "
            "[[0, 0], [2000000000, 3], [4000000000, 3]]}\n  ]\n}\n");
}

}  // namespace
}  // namespace gtw
