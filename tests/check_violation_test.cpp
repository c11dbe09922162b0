// GTW-San violation-fixture harness (DESIGN.md §12): every checker must
// fire on a deliberately broken scenario and stay silent on a clean one —
// a sanitizer that cannot catch its own fixtures is decoration.
//
// Three layers, matching the check:: architecture:
//   - Monitor mechanics (ring buffer, cap, report, drain-vs-quiescent);
//   - the pure invariant verdicts of invariants.hpp on hand-built broken
//     ledgers (build-mode independent);
//   - the hook-driven checkers (SchedulerChecker, PathChecker) driven
//     directly through their observer interfaces, plus end-to-end
//     scenarios against the real scheduler and pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/attach.hpp"
#include "check/invariants.hpp"
#include "check/monitor.hpp"
#include "des/pool.hpp"
#include "des/scheduler.hpp"
#include "des/time.hpp"
#include "fire/pipeline.hpp"
#include "meta/metacomputer.hpp"
#include "meta/path_transport.hpp"
#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/units.hpp"
#include "obs/span.hpp"
#include "testbed/testbed.hpp"

namespace gtw::check {
namespace {

// --- Monitor mechanics ------------------------------------------------------

TEST(MonitorTest, CleanRunReportsAllClear) {
  des::Scheduler sched;
  Monitor mon(sched);
  mon.add_invariant("always.ok", [] { return std::nullopt; });
  mon.add_drain_check("drain.ok", [] { return std::nullopt; });
  EXPECT_EQ(mon.check_now(), 0u);
  EXPECT_EQ(mon.finish(), 0u);
  EXPECT_TRUE(mon.clean());
  EXPECT_EQ(mon.report(), "gtw-check: clean (0 violations)\n");
}

TEST(MonitorTest, ViolationCarriesHistoryOldestFirst) {
  des::Scheduler sched;
  Monitor mon(sched);
  mon.note_event("fire", 1);
  mon.note_delivered("meta.path.wan", 1, 7, 4096);
  mon.note_event("cancel", 2);
  mon.note_fault("link_down", "j->g", true);
  mon.violation("unit.test", "broke");
  ASSERT_EQ(mon.violations().size(), 1u);
  const Violation& v = mon.violations()[0];
  EXPECT_EQ(v.checker, "unit.test");
  ASSERT_EQ(v.history.size(), 4u);
  // Notes carry a simulated-time stamp prefix, then each kind's tag.
  EXPECT_EQ(v.history[0], "[t=0.000000000s] fire seq=1");
  EXPECT_EQ(v.history[1],
            "[t=0.000000000s] path meta.path.wan side 1 msg 7 (4096 B) "
            "delivered");
  EXPECT_EQ(v.history[2], "[t=0.000000000s] cancel seq=2");
  EXPECT_EQ(v.history[3], "[t=0.000000000s] fault link_down j->g begin");
}

TEST(MonitorTest, HistoryRingKeepsLastCapacityNotes) {
  des::Scheduler sched;
  Monitor mon(sched);
  for (std::uint64_t i = 0; i < 100; ++i) mon.note_event("fire", i);
  mon.violation("unit.test", "broke");
  const auto& hist = mon.violations()[0].history;
  ASSERT_EQ(hist.size(), Monitor::kHistoryCapacity);
  // 100 notes into a 64-slot ring: 36..99 survive, oldest first.
  EXPECT_NE(hist.front().find("fire seq=36"), std::string::npos);
  EXPECT_NE(hist.back().find("fire seq=99"), std::string::npos);
}

TEST(MonitorTest, ViolationListCapsButCountKeepsGrowing) {
  des::Scheduler sched;
  Monitor mon(sched);
  for (int i = 0; i < 150; ++i) mon.violation("unit.flood", "broke");
  EXPECT_EQ(mon.violations().size(), Monitor::kMaxViolations);
  EXPECT_EQ(mon.total_violations(), 150u);
  EXPECT_FALSE(mon.clean());
  EXPECT_NE(mon.report().find("150 violation(s)"), std::string::npos);
}

TEST(MonitorTest, DrainChecksOnlyRunAtFinish) {
  des::Scheduler sched;
  Monitor mon(sched);
  mon.add_drain_check("drain.only",
                      [] { return std::optional<std::string>("leak"); });
  EXPECT_EQ(mon.check_now(), 0u);  // quiescent sweep skips drain checks
  EXPECT_EQ(mon.finish(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "drain.only");
}

TEST(MonitorTest, InRunSweepReportsViolationHealedBeforeDrain) {
  des::Scheduler sched;
  Monitor mon(sched);
  attach_scheduler(mon, sched);
  bool balanced = true;
  mon.add_invariant("unit.ledger", [&balanced]() -> std::optional<std::string> {
    if (balanced) return std::nullopt;
    return std::string("out of balance");
  });
  // The ledger is out of balance from the end of event `from` to the end
  // of event `from + kSweepEvery`: whatever the sweep phase, exactly one
  // in-run sweep falls inside that stretch.  It heals long before drain.
  const std::uint64_t every = SchedulerChecker::kSweepEvery;
  const std::uint64_t from = every / 2;
  for (std::uint64_t i = 1; i <= 3 * every; ++i) {
    sched.schedule_at(des::SimTime::microseconds(static_cast<std::int64_t>(i)),
                      [&balanced, i, from, every] {
                        if (i == from) balanced = false;
                        if (i == from + every) balanced = true;
                      });
  }
  sched.run();
  EXPECT_EQ(sched.events_executed(), 3 * every);
  EXPECT_EQ(mon.finish(), 0u);  // healed: the end-of-run sweep sees nothing
  ASSERT_EQ(mon.total_violations(), 1u);
  const Violation& v = mon.violations()[0];
  EXPECT_EQ(v.checker, "unit.ledger");
  // Reported at the last quiet point inside the stretch, with the events
  // that led up to it.
  EXPECT_EQ(v.when, des::SimTime::microseconds(static_cast<std::int64_t>(
                        every - 1)));
  ASSERT_FALSE(v.history.empty());
  EXPECT_NE(v.history.back().find("fire seq="), std::string::npos);
}

// --- pure invariant verdicts on broken ledgers ------------------------------

TEST(InvariantTest, LinkConservationFlagsMissingBytes) {
  LinkAccounts a;
  a.submitted_bytes = 1000;
  a.sent_bytes = 400;
  a.queued_bytes = 500;  // 100 bytes vanished
  EXPECT_TRUE(link_conservation(a).has_value());
  a.dropped_bytes = 100;
  EXPECT_FALSE(link_conservation(a).has_value());
}

TEST(InvariantTest, LinkDrainedFlagsQueuedAndFrameImbalance) {
  LinkAccounts a;
  a.submitted_frames = 3;
  a.submitted_bytes = 300;
  a.sent_frames = 2;  // one frame unaccounted for
  a.sent_bytes = 300;
  EXPECT_TRUE(link_drained(a).has_value());
  a.sent_frames = 3;
  EXPECT_FALSE(link_drained(a).has_value());
  a.queued_bytes = 10;  // drained link must hold nothing
  EXPECT_TRUE(link_drained(a).has_value());
}

TEST(InvariantTest, HostDrainedFlagsLostFramesAndReassemblyLeak) {
  HostAccounts a;
  a.nic_arrivals = 10;
  a.received = 6;
  a.forwarded = 3;  // one frame lost
  EXPECT_TRUE(host_drained(a).has_value());
  a.recv_unroutable = 1;
  EXPECT_FALSE(host_drained(a).has_value());
  a.reassembly_pending = 2;  // partially reassembled datagrams leaked
  EXPECT_TRUE(host_drained(a).has_value());
}

TEST(InvariantTest, SwitchDrainedFlagsFabricLoss) {
  SwitchAccounts a;
  a.ingress_frames = 5;
  a.egress_submitted_frames = 4;
  EXPECT_TRUE(switch_drained(a).has_value());
  a.unroutable_frames = 1;
  EXPECT_FALSE(switch_drained(a).has_value());
}

TEST(InvariantTest, TcpSequenceSanityFlagsInvertedPointers) {
  TcpSeqAccounts a;
  a.snd_una = 100;
  a.snd_nxt = 90;  // nxt behind una
  a.snd_max = 100;
  a.snd_end = 100;
  a.cwnd = 1460.0;
  a.mss = 1460;
  EXPECT_TRUE(tcp_sequence_sanity(a).has_value());
  a.snd_nxt = 100;
  EXPECT_FALSE(tcp_sequence_sanity(a).has_value());
  a.cwnd = 100.0;  // collapsed below one segment
  EXPECT_TRUE(tcp_sequence_sanity(a).has_value());
}

TEST(InvariantTest, TcpDrainedFlagsUnfinishedWork) {
  TcpSeqAccounts a;
  a.snd_una = 900;
  a.snd_nxt = 1000;
  a.snd_max = 1000;
  a.snd_end = 1000;  // 100 bytes still unacked
  a.cwnd = 1460.0;
  a.mss = 1460;
  EXPECT_TRUE(tcp_drained(a).has_value());
  a.snd_una = 1000;
  EXPECT_FALSE(tcp_drained(a).has_value());
}

TEST(InvariantTest, PathDrainedFlagsStrandedChunks) {
  PathAccounts a;
  a.messages = 4;
  a.delivered_messages = 4;
  a.bytes = 4096;
  a.delivered_bytes = 4096;
  EXPECT_FALSE(path_drained(a).has_value());
  a.outstanding_chunks = 1;  // handed to TCP, never delivered
  EXPECT_TRUE(path_drained(a).has_value());
  a.outstanding_chunks = 0;
  a.delivered_messages = 3;  // a whole message vanished
  EXPECT_TRUE(path_drained(a).has_value());
}

TEST(InvariantTest, FlowConservationFlagsLostItems) {
  FlowAccounts a;
  a.pushed = 10;
  a.admitted = 8;
  a.admission_dropped = 2;
  a.completed = 7;  // one admitted item vanished
  EXPECT_TRUE(flow_conservation(a).has_value());
  a.in_flight = 1;
  EXPECT_FALSE(flow_conservation(a).has_value());
  EXPECT_TRUE(flow_drained(a).has_value());  // in flight at drain = leak
}

TEST(InvariantTest, FlowStageSanityFlagsImpossibleLedger) {
  FlowStageAccounts a;
  a.items_in = 5;
  a.items_out = 4;
  a.dropped = 2;  // out + dropped > in
  EXPECT_TRUE(flow_stage_sanity(a).has_value());
  a.dropped = 0;
  a.queue_depth = 3;  // more queued than unaccounted for
  EXPECT_TRUE(flow_stage_sanity(a).has_value());
  a.queue_depth = 1;
  a.queue_peak = 1;
  EXPECT_FALSE(flow_stage_sanity(a).has_value());
}

// --- SchedulerChecker, driven through the hook interface --------------------

TEST(SchedulerCheckerTest, PastScheduleFires) {
  des::Scheduler sched;
  Monitor mon(sched);
  SchedulerChecker checker(mon);
  checker.on_schedule(des::SimTime::milliseconds(1),
                      des::SimTime::milliseconds(2), 7);
  ASSERT_EQ(mon.total_violations(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "des.sched.past-schedule");
}

TEST(SchedulerCheckerTest, MonotonicFireFlagsRegression) {
  des::Scheduler sched;
  Monitor mon(sched);
  SchedulerChecker checker(mon);
  checker.on_fire(des::SimTime::milliseconds(2), 1);
  checker.on_fire(des::SimTime::milliseconds(1), 2);  // time went backwards
  ASSERT_EQ(mon.total_violations(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "des.sched.monotonic-fire");
  // The violation report carries the fire breadcrumbs.
  EXPECT_NE(mon.violations()[0].history[0].find("fire seq=1"),
            std::string::npos);
}

TEST(SchedulerCheckerTest, CancelOutcomesClassified) {
  des::Scheduler sched;
  Monitor mon(sched);
  SchedulerChecker checker(mon);
  using Outcome = des::SchedulerCheckHook::CancelOutcome;
  checker.on_cancel(1, Outcome::kCancelled);  // normal: breadcrumb only
  checker.on_cancel(2, Outcome::kStale);      // documented no-op: counted
  EXPECT_TRUE(mon.clean());
  EXPECT_EQ(checker.stale_cancels(), 1u);
  checker.on_cancel(3, Outcome::kDouble);  // aliased handle: violation
  ASSERT_EQ(mon.total_violations(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "des.sched.double-cancel");
}

// --- PathChecker, driven through the observer interface ---------------------

TEST(PathCheckerTest, ChunkDeliveredTwiceFlagged) {
  des::Scheduler sched;
  Monitor mon(sched);
  PathChecker checker(mon, "meta.path.fixture");
  checker.on_chunk(0, 0, 0, /*duplicate=*/false);
  checker.on_chunk(0, 0, 1, /*duplicate=*/false);
  checker.on_chunk(0, 0, 1, /*duplicate=*/true);  // suppressed resend: fine
  EXPECT_TRUE(mon.clean());
  checker.on_chunk(0, 0, 0, /*duplicate=*/false);  // same chunk, unsuppressed
  ASSERT_EQ(mon.total_violations(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "meta.path.fixture.chunk-twice");
}

TEST(PathCheckerTest, PhantomDuplicateFlagged) {
  des::Scheduler sched;
  Monitor mon(sched);
  PathChecker checker(mon, "meta.path.fixture");
  // Transport claims duplicate-suppression for a chunk that never arrived.
  checker.on_chunk(1, 5, 2, /*duplicate=*/true);
  ASSERT_EQ(mon.total_violations(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "meta.path.fixture.chunk-dup");
}

TEST(PathCheckerTest, OutOfOrderMessageFlaggedOnceThenResyncs) {
  des::Scheduler sched;
  Monitor mon(sched);
  PathChecker checker(mon, "meta.path.fixture");
  checker.on_message(0, 0, 1024);
  checker.on_message(0, 1, 1024);
  EXPECT_TRUE(mon.clean());
  checker.on_message(0, 3, 1024);  // message 2 overtaken
  EXPECT_EQ(mon.total_violations(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "meta.path.fixture.order");
  checker.on_message(0, 4, 1024);  // resynced: one break reports once
  EXPECT_EQ(mon.total_violations(), 1u);
}

// --- pool census ------------------------------------------------------------

TEST(PoolCensusTest, LeakedSlotCaughtAtDrain) {
  des::Scheduler sched;
  Monitor mon(sched);
  des::SlabPool<int, 16> pool;
  attach_pool(mon, pool, "des.pool.fixture");
  (void)pool.acquire();  // never released
  EXPECT_GE(mon.finish(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "des.pool.fixture.leak");
}

TEST(PoolCensusTest, BalancedAcquireReleaseIsClean) {
  des::Scheduler sched;
  Monitor mon(sched);
  des::SlabPool<int, 16> pool;
  attach_pool(mon, pool, "des.pool.fixture");
  const auto idx = pool.acquire();
  pool.release(idx);
  EXPECT_EQ(mon.finish(), 0u);
  EXPECT_TRUE(mon.clean());
}

// --- end-to-end against the real scheduler ----------------------------------

// The pool census invariant (records in use == live events + tombstones)
// holds through schedule / cancel / fire churn and at drain, in every build.
TEST(EndToEndTest, SchedulerCensusSilentOnCleanRun) {
  des::Scheduler sched;
  Monitor mon(sched);
  attach_scheduler(mon, sched);
  for (int i = 1; i <= 8; ++i) {
    auto h = sched.schedule_at(des::SimTime::milliseconds(i), [] {});
    if (i % 3 == 0) h.cancel();  // leave tombstones in the queue
  }
  EXPECT_EQ(mon.check_now(), 0u);  // census holds with tombstones present
  sched.run();
  EXPECT_EQ(mon.finish(), 0u);
  EXPECT_TRUE(mon.clean());
}

// A real link driven to drain: byte conservation holds continuously and the
// drain census passes — the "silent on clean runs" half of the contract.
TEST(EndToEndTest, LinkConservationSilentOnCleanRun) {
  des::Scheduler sched;
  net::Link link(sched, "fixture",
                 {units::BitRate::mbps(100.0), des::SimTime::zero(),
                  units::Bytes{1 << 20}, des::SimTime::zero()});
  link.set_sink([](net::Frame) {});
  Monitor mon(sched);
  attach_link(mon, link);
  for (int i = 0; i < 4; ++i) {
    net::Frame f;
    f.wire_bytes = 1250;
    link.submit(f);
  }
  EXPECT_EQ(mon.check_now(), 0u);  // frames queued/in transmit: bytes balance
  sched.run();
  EXPECT_EQ(mon.finish(), 0u);
  EXPECT_TRUE(mon.clean());
}

// These fixtures prove the scheduler's and pool's wiring end to end.

TEST(EndToEndCheckedTest, CopiedHandleDoubleCancelCaught) {
  des::Scheduler sched;
  Monitor mon(sched);
  attach_scheduler(mon, sched);
  // Keep enough live events around that the first cancel does not trip the
  // tombstone sweep (cancelled > live) — a swept slot would make the second
  // cancel look stale instead of double.
  for (int i = 0; i < 3; ++i)
    sched.schedule_at(des::SimTime::milliseconds(2 + i), [] {});
  des::EventHandle h = sched.schedule_at(des::SimTime::milliseconds(1), [] {});
  des::EventHandle copy = h;
  h.cancel();
  copy.cancel();  // same generation, already tombstoned
  ASSERT_GE(mon.total_violations(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "des.sched.double-cancel");
  sched.run();
}

TEST(EndToEndCheckedTest, StaleHandleCancelIsNoViolation) {
  des::Scheduler sched;
  Monitor mon(sched);
  SchedulerChecker& checker = attach_scheduler(mon, sched);
  des::EventHandle h = sched.schedule_at(des::SimTime::milliseconds(1), [] {});
  sched.run();  // event fires; the handle is now stale
  h.cancel();
  EXPECT_EQ(checker.stale_cancels(), 1u);
  EXPECT_EQ(mon.finish(), 0u);
}

TEST(EndToEndCheckedTest, SlabPoolDoubleFreeRefusedAndCounted) {
  des::Scheduler sched;
  Monitor mon(sched);
  des::SlabPool<int, 16> pool;
  attach_pool(mon, pool, "des.pool.fixture");
  const auto idx = pool.acquire();
  pool.release(idx);
  pool.release(idx);  // refused: the slot is already free
  EXPECT_EQ(pool.in_use(), 0u);  // the refusal kept the census intact
  EXPECT_GE(mon.finish(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "des.pool.fixture.double-free");
}

TEST(EndToEndCheckedTest, CleanRunLeavesBreadcrumbsNotViolations) {
  des::Scheduler sched;
  Monitor mon(sched);
  attach_scheduler(mon, sched);
  for (int i = 1; i <= 3; ++i) {
    sched.schedule_at(des::SimTime::milliseconds(i), [] {});
  }
  sched.run();
  EXPECT_EQ(mon.finish(), 0u);
  // The hook recorded per-event breadcrumbs for any future report.
  mon.violation("unit.probe", "inspect history");
  EXPECT_NE(mon.violations()[0].history.back().find("fire seq="),
            std::string::npos);
}

// A cut of gw_o200's ATM uplink, where a WAN send's queue builds (the
// gateway hands frames over faster than its 622 Mbit/s adapter clocks them
// out), at the first instant frames wait behind the one on the wire: the
// flush and the lost wire frame both reach the outage ledger on a real
// path, and every link, switch and host ledger balances under GTW-San.
TEST(EndToEndCheckedTest, UplinkCutFlushesTheQueueAndLosesTheWireFrame) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  des::Scheduler& sched = tb.scheduler();
  meta::Metacomputer mc{sched};
  meta::MachineSpec a;
  a.name = "JUELICH";
  a.frontend = &tb.gw_o200();
  meta::MachineSpec b;
  b.name = "GMD";
  b.frontend = &tb.gw_e5000();
  const int ma = mc.add_machine(a);
  const int mb = mc.add_machine(b);
  meta::PathConfig pc;
  pc.tcp.mss = tb.options().atm_mtu - units::Bytes{40};
  pc.tcp.recv_buffer = units::Bytes{4u << 20};
  pc.streams = 4;
  pc.chunk_timeout = des::SimTime::milliseconds(400);
  mc.link_machines(ma, mb, pc, 7000);

  net::Link* uplink = nullptr;
  for (net::Link* l : tb.atm_uplinks())
    if (l->name() == "gw_o200.atm.up") uplink = l;
  ASSERT_NE(uplink, nullptr);

  Monitor mon(sched);
  attach_testbed(mon, tb);
  net::FaultPlan plan(sched);
  std::uint64_t waiting = 0, flushed = 0, wire_bytes = 0;
  std::function<void()> poll = [&] {
    if (uplink->queue_frames() < 2) {
      sched.schedule_after(des::SimTime::microseconds(5), [&] { poll(); });
      return;
    }
    waiting = uplink->queue_frames();
    const std::uint64_t before = uplink->outage_drops();
    plan.link_down(*uplink, sched.now(), des::SimTime::milliseconds(20));
    sched.schedule_at(sched.now(), [&, before] {  // just after the cut
      flushed = uplink->outage_drops() - before;
      wire_bytes = uplink->queue_bytes();  // all of it on the wire
    });
  };
  sched.schedule_at(des::SimTime::milliseconds(1), [&] { poll(); });
  bool delivered = false;
  mc.wan_send(ma, mb, units::Bytes{8u << 20}, [&] { delivered = true; });
  sched.run();
  mon.finish();
  EXPECT_TRUE(mon.clean()) << mon.report();
  mon.require_clean("uplink cut with a queue and a frame on the wire");

  EXPECT_TRUE(delivered);
  ASSERT_GE(waiting, 2u);
  EXPECT_EQ(flushed, waiting);  // the queue went with the cut
  EXPECT_GT(wire_bytes, 0u);    // and a frame was on the wire, lost at its end
  EXPECT_EQ(uplink->queue_bytes(), 0u);
  EXPECT_GE(uplink->outage_drops(), flushed + 1);
  EXPECT_GE(uplink->outage_dropped_bytes(), wire_bytes);
}

#if defined(NDEBUG)
// schedule_at's own assert is compiled out in release builds — exactly the
// gap the runtime check covers.  (In asserting builds the abort would fire
// first, so this fixture is release-only.)
TEST(EndToEndCheckedTest, ScheduleIntoThePastCaught) {
  des::Scheduler sched;
  Monitor mon(sched);
  attach_scheduler(mon, sched);
  sched.schedule_at(des::SimTime::milliseconds(5), [&sched] {
    sched.schedule_at(des::SimTime::milliseconds(1), [] {});  // in the past
  });
  sched.run();
  ASSERT_GE(mon.total_violations(), 1u);
  EXPECT_EQ(mon.violations()[0].checker, "des.sched.past-schedule");
}
#endif  // NDEBUG

// --- attaching GTW-San does not perturb a run -------------------------------
// Each scenario runs once bare and once with the full catalog attached (and
// a span tracer, which GTW-San audits); the two must simulate the same
// world, and the monitored one must finish clean.

// What a run simulated: its event stream, when its work landed, and the
// counters of the component that carried it.
struct Outcome {
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  std::vector<std::int64_t> landed_ps;
  std::vector<std::uint64_t> counters;
  bool operator==(const Outcome&) const = default;
};

// An 8-stream 16 MB Metacomputer::wan_send through a BER burst and a 0.5 s
// cut of the data direction.
Outcome faulted_wan_send(bool monitored) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  meta::Metacomputer mc{tb.scheduler()};
  meta::MachineSpec a;
  a.name = "JUELICH";
  a.frontend = &tb.gw_o200();
  meta::MachineSpec b;
  b.name = "GMD";
  b.frontend = &tb.gw_e5000();
  const int ma = mc.add_machine(a);
  const int mb = mc.add_machine(b);
  meta::PathConfig pc;
  pc.tcp.mss = tb.options().atm_mtu - units::Bytes{40};
  pc.tcp.recv_buffer = units::Bytes{4u << 20};
  pc.streams = 8;
  pc.chunk_bytes = units::Bytes{256u << 10};
  pc.stream_window = units::Bytes{2u << 20};
  pc.chunk_timeout = des::SimTime::milliseconds(400);
  pc.adapt_interval = des::SimTime::milliseconds(500);
  pc.min_streams = 2;
  mc.link_machines(ma, mb, pc, 7000);
  meta::PathTransport& path = *mc.wan_path(ma, mb);
  net::FaultPlan plan(tb.scheduler());
  plan.ber_burst(tb.wan_link_j_to_g(), des::SimTime::milliseconds(1),
                 des::SimTime::seconds(30), 1.3e-7);
  plan.link_down(tb.wan_link_j_to_g(), des::SimTime::milliseconds(100),
                 des::SimTime::milliseconds(500));

  obs::SpanTracer spans;
  Monitor mon(tb.scheduler());
  if (monitored) {
    tb.scheduler().set_span_hook(&spans);
    attach_testbed(mon, tb);
    attach_path_transport(mon, path, "wan");
    attach_fault_plan(mon, plan);
    attach_span_tracer(mon, spans);
  }
  Outcome out;
  mc.wan_send(ma, mb, units::Bytes{16u << 20}, [&] {
    out.landed_ps.push_back(tb.scheduler().now().ps());
  });
  tb.scheduler().run();
  if (monitored) {
    mon.finish();
    EXPECT_TRUE(mon.clean()) << mon.report();
    EXPECT_GT(spans.file().spans.size(), 0u);
  }
  // The faults bit: frames were cut and corrupted, and chunks resent.
  EXPECT_GT(tb.wan_link_j_to_g().outage_drops(), 0u);
  EXPECT_GT(tb.wan_link_j_to_g().corrupted_frames(), 0u);
  EXPECT_GT(path.stats(0).chunk_resends, 0u);
  out.events = tb.scheduler().events_executed();
  out.hash = tb.scheduler().stream_hash();
  for (int side = 0; side < 2; ++side) {
    const meta::PathTransport::Stats& st = path.stats(side);
    out.counters.insert(out.counters.end(),
                        {st.messages, st.bytes, st.chunks, st.chunk_resends,
                         st.duplicate_chunks, st.stream_resets,
                         st.delivered_messages, st.delivered_bytes,
                         st.reassembly_peak_bytes});
  }
  return out;
}

// The Figure-2 pipeline: scanner front end -> O200 gateway -> Onyx2.
Outcome fig2_pipeline(bool monitored) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  fire::PipelineConfig cfg;
  cfg.n_scans = 8;
  cfg.t3e_pes = 256;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  obs::SpanTracer spans;
  Monitor mon(tb.scheduler());
  if (monitored) {
    tb.scheduler().set_span_hook(&spans);
    attach_testbed(mon, tb);
    attach_stage_graph(mon, pipe.graph(), "fire");
    attach_span_tracer(mon, spans);
  }
  pipe.start();
  tb.scheduler().run();
  if (monitored) {
    mon.finish();
    EXPECT_TRUE(mon.clean()) << mon.report();
    EXPECT_GT(spans.file().spans.size(), 0u);
  }
  Outcome out;
  out.events = tb.scheduler().events_executed();
  out.hash = tb.scheduler().stream_hash();
  const fire::PipelineResult res = pipe.result();
  for (const fire::ScanRecord& r : res.records)
    for (const des::SimTime t : {r.acquired, r.at_server, r.sent, r.at_compute,
                                 r.processed, r.at_client, r.displayed})
      out.landed_ps.push_back(t.ps());
  out.counters.push_back(static_cast<std::uint64_t>(res.scans_skipped));
  return out;
}

TEST(AttachPerturbationTest, FaultedWanSendSimulatesTheSameWorld) {
  const Outcome bare = faulted_wan_send(false);
  const Outcome checked = faulted_wan_send(true);
  EXPECT_EQ(bare.landed_ps.size(), 1u);
  EXPECT_EQ(bare.events, checked.events);
  EXPECT_EQ(bare.hash, checked.hash);
  EXPECT_EQ(bare.landed_ps, checked.landed_ps);
  EXPECT_EQ(bare.counters, checked.counters);
}

TEST(AttachPerturbationTest, Fig2PipelineSimulatesTheSameWorld) {
  const Outcome bare = fig2_pipeline(false);
  const Outcome checked = fig2_pipeline(true);
  EXPECT_EQ(bare.landed_ps.size(), 8u * 7u);
  EXPECT_EQ(bare.events, checked.events);
  EXPECT_EQ(bare.hash, checked.hash);
  EXPECT_EQ(bare.landed_ps, checked.landed_ps);
  EXPECT_EQ(bare.counters, checked.counters);
}

}  // namespace
}  // namespace gtw::check
