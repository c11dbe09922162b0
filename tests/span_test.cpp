// Causal span tracing (DESIGN.md section 13): SpanTracer bookkeeping,
// layer filtering, abort cascades, the write_json -> load_spans round
// trip, latency-budget sweep exactness, and the lifecycle edge cases the
// WAN makes interesting — spans held open across a PathTransport stall
// reset, traces aborted when the Communicator declares a peer
// unreachable, a zero-leak census at drain, the guarantee that
// attaching the tracer does not perturb the simulation, and tracer and
// scheduler dying in either order while spans are open.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "check/attach.hpp"
#include "check/monitor.hpp"
#include "des/scheduler.hpp"
#include "des/span_hook.hpp"
#include "meta/communicator.hpp"
#include "meta/metacomputer.hpp"
#include "meta/path_transport.hpp"
#include "net/atm.hpp"
#include "net/fault.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"

namespace gtw::obs {
namespace {

using des::SimTime;

SimTime ms(int m) { return SimTime::milliseconds(m); }
SimTime ps(std::int64_t p) { return SimTime::picoseconds(p); }

// --- tracer unit tests ------------------------------------------------------

TEST(SpanTracerTest, MintBeginEndCloseBookkeeping) {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(100));
  EXPECT_TRUE(ctx.valid());
  EXPECT_EQ(t.open_traces(), 1u);
  EXPECT_EQ(t.open_spans(), 1u);  // the root span

  const std::uint64_t s1 =
      t.begin_span(ctx, des::SpanPhase::kQueueWait, "flow", "q", ps(100));
  const std::uint64_t s2 =
      t.begin_span(des::under(ctx, s1), des::SpanPhase::kCompute, "flow",
                   "body", ps(200));
  EXPECT_EQ(t.open_spans(), 3u);
  EXPECT_EQ(t.spans()[s2 - 1].parent, s1);  // nested under the wait span

  t.end_span(s2, ps(300));
  t.end_span(s1, ps(400));
  EXPECT_EQ(t.open_spans(), 1u);
  t.close_trace(ctx, ps(500));
  EXPECT_EQ(t.open_spans(), 0u);
  EXPECT_EQ(t.open_traces(), 0u);
  EXPECT_EQ(t.traces().at(ctx.trace_id).status, "closed");
  // Exact integer-picosecond stamps survive.
  EXPECT_EQ(t.spans()[s1 - 1].begin.ps(), 100);
  EXPECT_EQ(t.spans()[s1 - 1].end.ps(), 400);
}

TEST(SpanTracerTest, DisabledLayerYieldsSpanZeroAndZeroIsInert) {
  SpanTracer t;
  t.enable_layer("link", false);
  const des::TraceContext ctx = t.mint("test.origin", ps(0));
  const std::uint64_t s =
      t.begin_span(ctx, des::SpanPhase::kSerialize, "link", "wire", ps(0));
  EXPECT_EQ(s, 0u);
  EXPECT_EQ(t.open_spans(), 1u);  // only the root
  // Ending / aborting span 0 must be a no-op everywhere.
  t.end_span(0, ps(10));
  t.abort_span(0, ps(10));
  EXPECT_EQ(t.open_spans(), 1u);
  // An invalid (zero) context never records anything either.
  EXPECT_EQ(t.begin_span(des::TraceContext{}, des::SpanPhase::kCompute,
                         "flow", "x", ps(0)),
            0u);
  t.close_trace(ctx, ps(20));
}

TEST(SpanTracerTest, AbortTraceCascadesAndLateEndIsNoOp) {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(0));
  const std::uint64_t s1 =
      t.begin_span(ctx, des::SpanPhase::kTransfer, "meta", "msg", ps(0));
  const std::uint64_t s2 = t.begin_span(des::under(ctx, s1),
                                        des::SpanPhase::kQueueWait, "meta",
                                        "chunk", ps(10));
  ASSERT_EQ(t.open_spans(), 3u);

  t.abort_trace(ctx, "unreachable", ps(50));
  EXPECT_EQ(t.open_spans(), 0u);
  EXPECT_EQ(t.open_traces(), 0u);
  EXPECT_EQ(t.traces().at(ctx.trace_id).status, "aborted");
  EXPECT_EQ(t.traces().at(ctx.trace_id).abort_reason, "unreachable");
  EXPECT_TRUE(t.spans()[s1 - 1].aborted);
  EXPECT_TRUE(t.spans()[s2 - 1].aborted);

  // A late copy of the dropped message tries to end its spans: no-op, the
  // abort stamps stand.
  t.end_span(s2, ps(900));
  EXPECT_EQ(t.spans()[s2 - 1].end.ps(), 50);
  EXPECT_TRUE(t.spans()[s2 - 1].aborted);
  // Double-close of the aborted trace is equally inert.
  t.close_trace(ctx, ps(900));
  EXPECT_EQ(t.traces().at(ctx.trace_id).status, "aborted");
}

// --- artifact round trip and analysis ---------------------------------------

TEST(SpanAnalysisTest, WriteJsonRoundTripsThroughLoader) {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(1'000));
  const std::uint64_t s1 =
      t.begin_span(ctx, des::SpanPhase::kSerialize, "link", "wire", ps(1'500));
  t.end_span(s1, ps(2'500));
  t.close_trace(ctx, ps(3'000));

  std::ostringstream os;
  t.write_json(os, "round_trip");
  std::istringstream is(os.str());
  SpanFile f;
  std::string error;
  ASSERT_TRUE(load_spans(is, "round_trip", f, error)) << error;
  EXPECT_EQ(f.label, "round_trip");
  ASSERT_EQ(f.traces.size(), 1u);
  ASSERT_EQ(f.spans.size(), 2u);
  EXPECT_EQ(f.open_spans, 0u);
  EXPECT_EQ(f.traces[0].status, "closed");
  EXPECT_EQ(f.spans[1].phase, "serialize");
  EXPECT_EQ(f.spans[1].layer, "link");
  EXPECT_EQ(f.spans[1].begin_ps, 1'500);
  EXPECT_EQ(f.spans[1].end_ps, 2'500);
  EXPECT_EQ(f.spans[1].parent, f.traces[0].root);
}

TEST(SpanAnalysisTest, WriteJsonRoundTripsLaneKeys) {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(1'000));
  const std::uint64_t s1 =
      t.begin_span(ctx, des::SpanPhase::kCompute, "flow", "body", ps(1'500));
  t.set_lane(s1, des::Lane{3});
  t.end_span(s1, ps(2'500));
  const des::TraceContext sent =
      t.send_message(ctx, "flow", 3, 5, 64, ps(2'500));
  t.recv_message(sent, "flow", 5, ps(2'750));
  t.close_trace(ctx, ps(3'000));

  std::ostringstream os;
  t.write_json(os, "lanes");
  std::istringstream is(os.str());
  SpanFile f;
  std::string error;
  ASSERT_TRUE(load_spans(is, "lanes", f, error)) << error;
  // A state lane, then a zero-width send naming its peer and size, and its
  // recv parented on the send.
  ASSERT_EQ(f.spans.size(), 4u);
  EXPECT_EQ(f.spans[1].lane, 3);
  EXPECT_EQ(f.spans[1].to, -1);
  EXPECT_EQ(f.spans[2].lane, 3);
  EXPECT_EQ(f.spans[2].to, 5);
  EXPECT_EQ(f.spans[2].bytes, 64u);
  EXPECT_EQ(f.spans[2].begin_ps, f.spans[2].end_ps);
  EXPECT_EQ(f.spans[3].lane, 5);
  EXPECT_EQ(f.spans[3].parent, f.spans[2].id);
  EXPECT_EQ(f.spans[0].lane, -1);  // the root is on no lane
}

TEST(SpanAnalysisTest, SweepPartitionsRootIntervalExactly) {
  // Root [0, 1000); child serialize [100, 400); grandchild propagate
  // [200, 300).  Innermost-active attribution: root owns [0,100) and
  // [400,1000), serialize owns [100,200) and [300,400), propagate owns
  // [200,300) — phase sums must equal the root duration exactly.
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(0));
  const std::uint64_t s1 =
      t.begin_span(ctx, des::SpanPhase::kSerialize, "link", "wire", ps(100));
  const std::uint64_t s2 = t.begin_span(des::under(ctx, s1),
                                        des::SpanPhase::kPropagate, "link",
                                        "fiber", ps(200));
  t.end_span(s2, ps(300));
  t.end_span(s1, ps(400));
  t.close_trace(ctx, ps(1'000));

  std::ostringstream os;
  t.write_json(os, "sweep");
  std::istringstream is(os.str());
  SpanFile f;
  std::string error;
  ASSERT_TRUE(load_spans(is, "sweep", f, error)) << error;

  const PhaseBudget b = budget(f);
  EXPECT_EQ(b.closed_traces, 1u);
  EXPECT_EQ(b.total_ps, 1'000);
  EXPECT_EQ(b.phase_ps.at("root"), 700);
  EXPECT_EQ(b.phase_ps.at("serialize"), 200);
  EXPECT_EQ(b.phase_ps.at("propagate"), 100);
  std::int64_t sum = 0;
  for (const auto& [phase, t_ps] : b.phase_ps) sum += t_ps;
  EXPECT_EQ(sum, b.total_ps);

  const auto segs = sweep_trace(f, f.traces[0].id);
  ASSERT_EQ(segs.size(), 5u);
  EXPECT_EQ(segs.front().span->phase, "root");
  EXPECT_EQ(segs[2].span->phase, "propagate");
  // Segments are contiguous: each begins where the previous ended.
  for (std::size_t i = 1; i < segs.size(); ++i)
    EXPECT_EQ(segs[i].begin_ps, segs[i - 1].end_ps);
}

TEST(SpanAnalysisTest, LoaderRejectsTruncatedArtifact) {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(0));
  t.close_trace(ctx, ps(10));
  std::ostringstream os;
  t.write_json(os, "truncated");
  // Drop the footer line — the signature of a run killed mid-write.
  std::string body = os.str();
  body.erase(body.rfind("{\"spans_total\""));
  std::istringstream is(body);
  SpanFile f;
  std::string error;
  EXPECT_FALSE(load_spans(is, "truncated", f, error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

// A valid artifact: root 1 of trace 1, span 2 under it, and a message
// (send 3 on lane 0, recv 4 on lane 1).
std::string small_artifact() {
  SpanTracer t;
  const des::TraceContext ctx = t.mint("test.origin", ps(0));
  const std::uint64_t s = t.begin_span(ctx, des::SpanPhase::kCompute, "flow",
                                       "body", ps(10));
  t.end_span(s, ps(20));
  t.recv_message(t.send_message(ctx, "flow", 0, 1, 8, ps(20)), "flow", 1,
                 ps(30));
  t.close_trace(ctx, ps(40));
  std::ostringstream os;
  t.write_json(os, "small");
  return os.str();
}

std::string with(std::string s, const std::string& from,
                 const std::string& to) {
  const auto at = s.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) s.replace(at, from.size(), to);
  return s;
}

// Loads `artifact`, expecting a one-line rejection that contains `needle`.
void expect_rejected(const std::string& artifact, const std::string& needle) {
  std::istringstream is(artifact);
  SpanFile f;
  std::string error;
  ASSERT_FALSE(load_spans(is, "t", f, error)) << needle;
  EXPECT_NE(error.find(needle), std::string::npos) << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << error;
}

TEST(SpanAnalysisTest, LoaderAcceptsTheSmallArtifact) {
  std::istringstream is(small_artifact());
  SpanFile f;
  std::string error;
  EXPECT_TRUE(load_spans(is, "t", f, error)) << error;
}

TEST(SpanAnalysisTest, LoaderRejectsIntegerFieldThatIsNotANumber) {
  expect_rejected(with(small_artifact(), "\"end_ps\": 20,", "\"end_ps\": zz,"),
                  "\"end_ps\" is not an integer");
  expect_rejected(with(small_artifact(), "\"root\": 1,", "\"root\": -1,"),
                  "\"root\" is not an integer");
  expect_rejected(with(small_artifact(), "\"spans_total\": 4",
                       "\"spans_total\": 4x"),
                  "\"spans_total\" is not an integer");
}

TEST(SpanAnalysisTest, LoaderRejectsSpanEndingBeforeItBegins) {
  expect_rejected(with(small_artifact(), "\"end_ps\": 20,", "\"end_ps\": 9,"),
                  "span 2 ends before it begins");
}

TEST(SpanAnalysisTest, LoaderRejectsRootNamingNoSpanOfItsTrace) {
  expect_rejected(with(small_artifact(), "\"root\": 1,", "\"root\": 9,"),
                  "trace 1 names root span 9");
  // A span that exists but belongs to another trace is no root either.
  expect_rejected(with(small_artifact(), "{\"span\": 1, \"trace\": 1,",
                       "{\"span\": 1, \"trace\": 2,"),
                  "trace 1 names root span 1");
}

TEST(SpanAnalysisTest, LoaderRejectsParentNamingNoSpanOfItsTrace) {
  expect_rejected(with(small_artifact(), "{\"span\": 3, \"trace\": 1,",
                       "{\"span\": 3, \"trace\": 2,"),
                  "names parent 1, which is not a span of trace 2");
}

TEST(SpanAnalysisTest, LoaderRejectsMalformedLaneKeys) {
  expect_rejected(with(small_artifact(), "\"lane\": 1}", "\"lane\": x}"),
                  "\"lane\" is not an integer");
  expect_rejected(with(small_artifact(), "\"lane\": 0, ", ""),
                  "\"to\"/\"bytes\" without \"lane\"");
  expect_rejected(with(small_artifact(), ", \"bytes\": 8", ""),
                  "missing \"bytes\"");
  expect_rejected(with(small_artifact(), "\"lane\": 1}",
                       "\"lane\": 1, \"bytes\": 8}"),
                  "missing \"to\"");
}

// --- WAN lifecycle edge cases -----------------------------------------------

// Two hosts joined by one ATM switch — the same WAN shape the transport
// and fault tests use; the egress link toward b is the fault target.
struct WanFixture {
  des::Scheduler sched;
  net::Host a{sched, "fe_a", 1};
  net::Host b{sched, "fe_b", 2};
  net::AtmSwitch sw{sched, "sw"};
  net::AtmNic nic_a{sched, a, "a.atm",
                    net::Link::Config{units::BitRate::mbps(622.0),
                                      des::SimTime::microseconds(250),
                                      units::Bytes{16u << 20},
                                      des::SimTime::zero()}};
  net::AtmNic nic_b{sched, b, "b.atm",
                    net::Link::Config{units::BitRate::mbps(622.0),
                                      des::SimTime::microseconds(250),
                                      units::Bytes{16u << 20},
                                      des::SimTime::zero()}};
  net::VcAllocator vcs;
  int pa = -1, pb = -1;

  WanFixture() {
    auto cfg = net::Link::Config{units::BitRate::mbps(622.0),
                                 des::SimTime::microseconds(250),
                                 units::Bytes{16u << 20},
                                 des::SimTime::zero()};
    pa = sw.add_port(cfg);
    pb = sw.add_port(cfg);
    nic_a.uplink().set_sink(sw.ingress(pa));
    nic_b.uplink().set_sink(sw.ingress(pb));
    sw.connect_egress(pa, nic_a.ingress());
    sw.connect_egress(pb, nic_b.ingress());
    vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
    a.add_route(2, &nic_a, 2);
    b.add_route(1, &nic_b, 1);
  }

  net::Link& wan_toward_b() { return sw.egress_link(pb); }
};

meta::PathConfig striped(int streams) {
  meta::PathConfig cfg;
  cfg.streams = streams;
  cfg.chunk_bytes = units::Bytes{64u << 10};
  return cfg;
}

TEST(SpanLifecycleTest, StallResetAbortsStrandedChunkSpansWithoutLeaks) {
  WanFixture f;
  SpanTracer tracer;
  f.sched.set_span_hook(&tracer);

  net::FaultPlan plan(f.sched);
  // Cut the WAN long enough that the chunk watchdog tears every stream
  // down and re-stripes the stranded chunks onto fresh connections.
  plan.link_down(f.wan_toward_b(), ms(20), ms(500));

  meta::PathConfig cfg = striped(4);
  cfg.chunk_timeout = ms(250);
  meta::PathTransport path(f.sched, f.a, f.b, 7000, cfg);
  int delivered = 0;
  path.send(0, units::Bytes{8u << 20}, [&] { ++delivered; });
  f.sched.run();

  EXPECT_EQ(delivered, 1);
  ASSERT_GE(path.stats(0).stream_resets, 1u);

  // The reset aborted the stranded chunks' spans and opened fresh ones;
  // at drain nothing may remain open and the message's trace is closed.
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(tracer.open_traces(), 0u);
  std::size_t aborted = 0;
  for (const auto& s : tracer.spans())
    if (s.aborted) ++aborted;
  EXPECT_GE(aborted, 1u);
  ASSERT_EQ(tracer.traces().size(), 1u);
  EXPECT_EQ(tracer.traces().begin()->second.status, "closed");
}

// Registers the fixture's two hosts as linked machines 0 and 1 of `mc`.
void add_linked_machines(WanFixture& f, meta::Metacomputer& mc) {
  meta::MachineSpec sa;
  sa.name = "T3E";
  sa.max_pes = 8;
  sa.frontend = &f.a;
  meta::MachineSpec sb;
  sb.name = "SP2";
  sb.max_pes = 8;
  sb.frontend = &f.b;
  mc.link_machines(mc.add_machine(sa), mc.add_machine(sb),
                   net::TcpConfig{}, 7000);
}

TEST(SpanLifecycleTest, UnreachableAbortsTraceAndLateCopiesDoNotLeak) {
  WanFixture f;
  SpanTracer tracer;
  f.sched.set_span_hook(&tracer);

  meta::Metacomputer mc(f.sched);
  add_linked_machines(f, mc);
  const int ma = 0, mb = 1;

  net::FaultPlan plan(f.sched);
  // Watchdogs at 50, 150, 350 ms (backoff 2): all inside the outage, so
  // the message is declared unreachable while its copies are in flight.
  plan.link_down(f.wan_toward_b(), ms(1), ms(1000));

  meta::Communicator comm(mc, {{ma, 0}, {mb, 0}});
  comm.set_retry_policy({ms(50), /*max_retries=*/2, /*backoff=*/2.0});
  int received = 0;
  comm.recv(1, 0, 7, [&](const meta::Message&) { ++received; });
  comm.send(0, 1, 7, 50'000);
  f.sched.run();

  EXPECT_EQ(received, 0);
  EXPECT_EQ(comm.reliability().unreachable_reports, 1u);
  ASSERT_GE(comm.reliability().dropped_after_unreachable, 1u);

  // The trace was aborted when the peer was declared unreachable; the
  // late copies arriving after the link healed must not reopen or leak
  // anything.
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(tracer.open_traces(), 0u);
  bool saw_unreachable = false;
  for (const auto& [id, tr] : tracer.traces())
    if (tr.status == "aborted" && tr.abort_reason == "unreachable")
      saw_unreachable = true;
  EXPECT_TRUE(saw_unreachable);
}

TEST(SpanLifecycleTest, CollectiveMintsOneTraceOverItsWanLegs) {
  WanFixture f;
  SpanTracer tracer;
  f.sched.set_span_hook(&tracer);
  meta::Metacomputer mc(f.sched);
  add_linked_machines(f, mc);

  // Entered outside any traced event, so the broadcast is a workload
  // origin: it mints comm.broadcast, and its one WAN leg nests under it.
  meta::Communicator comm(mc, {{0, 0}, {0, 1}, {1, 0}});
  int got = 0;
  for (int r = 0; r < comm.size(); ++r)
    comm.broadcast(r, /*root=*/0, 64u << 10, [&](const std::any&) { ++got; });
  f.sched.run();

  EXPECT_EQ(got, 3);
  ASSERT_EQ(tracer.traces().size(), 1u);
  const SpanTracer::Trace& trace = tracer.traces().begin()->second;
  EXPECT_EQ(trace.origin, "comm.broadcast");
  EXPECT_EQ(trace.status, "closed");
  std::size_t path_spans = 0;
  for (const auto& s : tracer.spans())
    if (s.trace == trace.id && s.layer == "meta") ++path_spans;
  EXPECT_GE(path_spans, 1u);  // PathTransport's message span
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(tracer.open_traces(), 0u);
}

TEST(SpanLifecycleTest, DrainLeakCensusIsCleanUnderMonitor) {
  WanFixture f;
  SpanTracer tracer;
  f.sched.set_span_hook(&tracer);
  check::Monitor mon(f.sched);
  check::attach_span_tracer(mon, tracer);

  meta::PathTransport path(f.sched, f.a, f.b, 7000, striped(4));
  int delivered = 0;
  path.send(0, units::Bytes{4u << 20}, [&] { ++delivered; });
  f.sched.run();
  mon.finish();

  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(mon.clean()) << mon.report();
}

TEST(SpanLifecycleTest, AttachingTracerIsPerturbationFree) {
  // The same workload with and without the tracer attached must drain at
  // the identical picosecond and move the identical bytes — observing
  // may never change the simulation.
  auto run = [](SpanTracer* tracer) {
    WanFixture f;
    if (tracer != nullptr) f.sched.set_span_hook(tracer);
    meta::PathTransport path(f.sched, f.a, f.b, 7000, striped(4));
    int delivered = 0;
    path.send(0, units::Bytes{2u << 20}, [&] { ++delivered; });
    f.sched.run();
    EXPECT_EQ(delivered, 1);
    return f.sched.now();
  };
  const SimTime bare = run(nullptr);
  SpanTracer tracer;
  const SimTime traced = run(&tracer);
  EXPECT_EQ(bare.ps(), traced.ps());
  EXPECT_GT(tracer.spans().size(), 0u);  // it did observe the run
}

// Sends a traced 4 MB message and runs 5 ms of it, so the message's
// transfer span is still open on `conn`.
void run_traced_message_partway(WanFixture& f, SpanTracer& tracer,
                                net::TcpConnection& conn) {
  tracer.mint("test.origin", f.sched.now());  // current until adopt({})
  conn.send(0, units::Bytes{4u << 20});
  tracer.adopt({});
  f.sched.run(ms(5));
}

TEST(SpanLifecycleTest, TracerDestroyedFirstDetachesFromScheduler) {
  WanFixture f;
  auto conn = std::make_unique<net::TcpConnection>(f.a, f.b, 100, 200);
  {
    SpanTracer tracer;
    f.sched.set_span_hook(&tracer);
    EXPECT_EQ(tracer.installed_on(), &f.sched);
    run_traced_message_partway(f, tracer, *conn);
    ASSERT_GE(tracer.open_spans(), 2u);  // the root and the message
  }
  // The dead tracer uninstalled itself, so tearing the connection down
  // (which retires open spans through the scheduler's hook) calls no hook;
  // a dangling one would be a call into a destroyed object.
  EXPECT_EQ(f.sched.span_hook(), nullptr);
  conn.reset();
  f.sched.run();  // the rest of the run drains untraced
}

TEST(SpanLifecycleTest, SchedulerDestroyedFirstForgetsTracer) {
  SpanTracer tracer;
  {
    WanFixture f;
    f.sched.set_span_hook(&tracer);
    net::TcpConnection conn(f.a, f.b, 100, 200);
    run_traced_message_partway(f, tracer, conn);
  }  // conn retires its span through the live tracer, then the scheduler dies
  std::size_t aborted = 0;
  for (const auto& s : tracer.spans())
    if (s.aborted) ++aborted;
  EXPECT_GE(aborted, 1u);
  EXPECT_EQ(tracer.installed_on(), nullptr);

  // The tracer outlives its scheduler and can serve another, one at a time.
  des::Scheduler s1;
  des::Scheduler s2;
  s1.set_span_hook(&tracer);
  s2.set_span_hook(&tracer);
  EXPECT_EQ(s1.span_hook(), nullptr);
  EXPECT_EQ(s2.span_hook(), &tracer);
  EXPECT_EQ(tracer.installed_on(), &s2);
}

}  // namespace
}  // namespace gtw::obs
