// Tests for the MPI-2-flavoured additions: scatter / alltoall and the
// language-interoperability layout helpers.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "des/scheduler.hpp"
#include "meta/communicator.hpp"
#include "meta/interop.hpp"
#include "meta/metacomputer.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"
#include "testbed/testbed.hpp"

namespace gtw::meta {
namespace {

// A standalone single-machine metacomputer is enough for collective
// semantics (the WAN staging is covered by meta_test.cpp).
struct LocalComm {
  des::Scheduler sched;
  Metacomputer mc{sched};
  std::shared_ptr<Communicator> comm;

  explicit LocalComm(int ranks) {
    MachineSpec m;
    m.name = "local";
    m.max_pes = 64;
    const int id = mc.add_machine(m);
    std::vector<ProcLoc> locs;
    for (int i = 0; i < ranks; ++i) locs.push_back({id, i});
    comm = std::make_shared<Communicator>(mc, std::move(locs));
  }
};

TEST(ScatterTest, EveryRankGetsItsSlice) {
  LocalComm f(4);
  std::vector<int> got(4, -1);
  for (int r = 0; r < 4; ++r) {
    std::vector<std::any> slices;
    if (r == 1) slices = {std::any{10}, std::any{11}, std::any{12},
                          std::any{13}};
    f.comm->scatter(r, /*root=*/1, 256,
                    [&got, r](const std::any& s) {
                      got[static_cast<std::size_t>(r)] = std::any_cast<int>(s);
                    },
                    std::move(slices));
  }
  f.sched.run();
  EXPECT_EQ(got, (std::vector<int>{10, 11, 12, 13}));
  EXPECT_EQ(f.mc.wan_messages(), 0u);  // one machine: nothing crosses
}

TEST(AlltoallTest, TransposesContributionMatrix) {
  LocalComm f(3);
  std::vector<std::vector<int>> got(3);
  for (int r = 0; r < 3; ++r) {
    std::vector<std::any> row;
    for (int c = 0; c < 3; ++c) row.push_back(std::any{r * 10 + c});
    f.comm->alltoall(r, 64, std::move(row),
                     [&got, r](std::vector<std::any> col) {
                       for (auto& v : col)
                         got[static_cast<std::size_t>(r)].push_back(
                             std::any_cast<int>(v));
                     });
  }
  f.sched.run();
  // Rank r receives column r: {0r, 1r, 2r}.
  EXPECT_EQ(got[0], (std::vector<int>{0, 10, 20}));
  EXPECT_EQ(got[1], (std::vector<int>{1, 11, 21}));
  EXPECT_EQ(got[2], (std::vector<int>{2, 12, 22}));
  EXPECT_EQ(f.mc.wan_messages(), 0u);
}

// Ranks on testbed machines, every pair of machines linked: layout[i] ranks
// on the i-th of the T3E-600, the SP2 and the Onyx 2 at GMD.  {2, 2} is
// bench/m1_metampi_performance's rig.
struct TestbedComm {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  Metacomputer mc{tb.scheduler()};
  std::shared_ptr<Communicator> comm;

  explicit TestbedComm(const std::vector<int>& layout) {
    net::Host* frontends[] = {&tb.t3e600(), &tb.sp2(), &tb.onyx2_gmd()};
    std::vector<ProcLoc> locs;
    for (std::size_t m = 0; m < layout.size(); ++m) {
      MachineSpec spec;
      spec.name = frontends[m]->name();
      spec.max_pes = 64;
      spec.frontend = frontends[m];
      const int id = mc.add_machine(spec);
      for (int pe = 0; pe < layout[m]; ++pe) locs.push_back({id, pe});
    }
    net::TcpConfig cfg;
    cfg.mss = tb.options().atm_mtu - units::Bytes{40};
    cfg.recv_buffer = units::Bytes{1u << 20};
    std::uint16_t port = 7000;
    for (int a = 0; a < mc.machine_count(); ++a)
      for (int b = a + 1; b < mc.machine_count(); ++b, port += 100)
        mc.link_machines(a, b, cfg, port);
    comm = std::make_shared<Communicator>(mc, std::move(locs));
  }
};

// Per-op WAN traffic equals the closed forms of the pattern table in
// DESIGN.md section 3, for `layout` ranks per machine and the root of the
// rooted ops at rank `root`.
void expect_pattern_table(const std::vector<int>& layout, int root) {
  const std::uint64_t b = 64u << 10, h = kMetaHeaderBytes;
  const std::uint64_t M = layout.size();
  int n_ranks = 0;
  int hub = 0;  // R: the machine holding rank `root`
  for (std::size_t m = 0; m < layout.size(); ++m) {
    if (root >= n_ranks && root < n_ranks + layout[m])
      hub = static_cast<int>(m);
    n_ranks += layout[m];
  }
  std::uint64_t to_or_from_hub = 0;  // sum over m != R of (n_m b + h)
  std::uint64_t pairwise = 0;        // sum over a != c of (n_a n_c b + h)
  for (std::size_t a = 0; a < M; ++a) {
    const auto n_a = static_cast<std::uint64_t>(layout[a]);
    if (static_cast<int>(a) != hub) to_or_from_hub += n_a * b + h;
    for (std::size_t c = 0; c < M; ++c)
      if (c != a)
        pairwise += n_a * static_cast<std::uint64_t>(layout[c]) * b + h;
  }

  using Done = std::function<void()>;
  struct Case {
    const char* op;
    std::function<void(Communicator&, int rank, Done)> enter;
    std::uint64_t messages, bytes;
  };
  const Case cases[] = {
      {"barrier",
       [](Communicator& c, int r, Done d) { c.barrier(r, d); },
       2 * (M - 1), 2 * (M - 1) * (8 + h)},
      {"allreduce",
       [](Communicator& c, int r, Done d) {
         c.allreduce(r, {1.0, 2.0}, ReduceOp::kSum,
                     [d](std::vector<double>) { d(); });
       },
       2 * (M - 1), 2 * (M - 1) * (16 + h)},
      {"broadcast",
       [&](Communicator& c, int r, Done d) {
         c.broadcast(r, root, b, [d](const std::any&) { d(); });
       },
       M - 1, (M - 1) * (b + h)},
      {"gather",
       [&](Communicator& c, int r, Done d) {
         c.gather(r, b, {}, root, [d](std::vector<std::any>) { d(); });
       },
       M - 1, to_or_from_hub},
      {"scatter",
       [&](Communicator& c, int r, Done d) {
         c.scatter(r, root, b, [d](const std::any&) { d(); });
       },
       M - 1, to_or_from_hub},
      {"alltoall",
       [&](Communicator& c, int r, Done d) {
         c.alltoall(r, b, {}, [d](std::vector<std::any>) { d(); });
       },
       M * (M - 1), pairwise},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.op);
    TestbedComm f(layout);
    int callbacks = 0;
    for (int r = 0; r < n_ranks; ++r)
      k.enter(*f.comm, r, [&] { ++callbacks; });
    f.tb.scheduler().run();
    // Only gather's root has a callback.
    EXPECT_EQ(callbacks, std::string(k.op) == "gather" ? 1 : n_ranks);
    EXPECT_EQ(f.mc.wan_messages(), k.messages);
    EXPECT_EQ(f.mc.wan_bytes(), k.bytes);
  }
}

TEST(CollectiveTrafficTest, MatchesPatternTableOnM1Rig) {
  expect_pattern_table({2, 2}, /*root=*/0);
}

TEST(CollectiveTrafficTest, MatchesPatternTableOnThreeMachines) {
  // Root on the SP2, so the hub is not the first machine.
  expect_pattern_table({2, 1, 1}, /*root=*/2);
}

TEST(InteropTest, ColumnMajorRoundTrip2D) {
  std::vector<int> src;
  for (int i = 0; i < 12; ++i) src.push_back(i);  // 4x3, x fastest
  const auto cm = to_column_major(src, 4, 3);
  // Element (x=2, y=1): src[1*4+2] = 6 -> cm[2*3+1].
  EXPECT_EQ(cm[2 * 3 + 1], 6);
  EXPECT_EQ(from_column_major(cm, 4, 3), src);
}

TEST(InteropTest, ColumnMajorRoundTrip3D) {
  const int nx = 3, ny = 4, nz = 2;
  std::vector<int> src;
  for (int i = 0; i < nx * ny * nz; ++i) src.push_back(i * 7);
  const auto cm = to_column_major(src, nx, ny, nz);
  EXPECT_EQ(from_column_major(cm, nx, ny, nz), src);
  // Spot check (x=1, y=2, z=1): src index (1*4+2)*3+1 = 19;
  // z-fastest index z + nz*(y + ny*x) = 1 + 2*(2 + 4*1) = 13.
  EXPECT_EQ(cm[13], src[19]);
}

TEST(VampirHookTest, CommunicatorRecordsSendsAndReceives) {
  LocalComm f(3);
  obs::SpanTracer spans;
  f.sched.set_span_hook(&spans);

  f.comm->recv(2, 0, 5, [](const Message&) {});
  f.comm->send(0, 2, 5, 4096);
  f.comm->send(1, 2, 6, 128);  // unexpected: delivered, no recv posted
  f.sched.run();

  const obs::SpanFile& file = spans.file();
  const obs::LaneStats stats = obs::lane_stats(file);
  EXPECT_EQ(stats.messages.at({0, 2}), 1u);
  EXPECT_EQ(stats.messages.at({1, 2}), 1u);
  EXPECT_EQ(stats.bytes.at({0, 2}), 4096u);
  EXPECT_EQ(stats.total_messages, 2u);
  // Each untraced send minted its own trace, closed at delivery, holding
  // the send on the source lane and the recv on the destination lane; the
  // recv's parent is its send, and it comes later (transport delay).
  ASSERT_EQ(file.traces.size(), 2u);
  int recvs = 0;
  for (const obs::SpanRec& s : file.spans) {
    const obs::SpanRec* send = obs::span_by_id(file, s.parent);
    if (send == nullptr || send->to < 0) continue;
    ++recvs;
    EXPECT_EQ(s.lane, 2);
    EXPECT_EQ(s.lane, send->to);
    EXPECT_GT(s.begin_ps, send->begin_ps);
  }
  EXPECT_EQ(recvs, 2);
  for (const obs::TraceRec& t : file.traces) {
    EXPECT_EQ(t.origin, "comm.intra");
    EXPECT_EQ(t.status, obs::TraceStatus::kClosed);
  }
  EXPECT_EQ(spans.open_spans(), 0u);
}

// A traced allreduce over two machines: every rank's call is a span on its
// lane from its own arrival to the instance's completion.
TEST(VampirHookTest, AllreduceSpansEveryRankFromArrivalToCompletion) {
  TestbedComm f({2, 2});
  obs::SpanTracer spans;
  f.tb.scheduler().set_span_hook(&spans);
  des::SimTime done;
  for (int r = 0; r < 4; ++r) {
    f.tb.scheduler().schedule_at(
        des::SimTime::milliseconds(r), [&f, &done, r] {
          f.comm->allreduce(r, {1.0}, ReduceOp::kSum,
                            [&f, &done](std::vector<double>) {
                              done = f.tb.scheduler().now();
                            });
        });
  }
  f.tb.scheduler().run();
  ASSERT_GT(done, des::SimTime::milliseconds(3));

  const obs::SpanFile& file = spans.file();
  // The first arrival minted the instance's trace; the WAN legs ran in it.
  ASSERT_EQ(file.traces.size(), 1u);
  EXPECT_EQ(file.traces[0].origin, "comm.allreduce");
  EXPECT_EQ(file.traces[0].status, obs::TraceStatus::kClosed);
  const obs::LaneStats stats = obs::lane_stats(file);
  EXPECT_EQ(stats.lanes, 4);
  EXPECT_EQ(stats.states, (std::vector<std::string>{"allreduce"}));
  for (std::int64_t r = 0; r < 4; ++r) {
    EXPECT_EQ(stats.state_ps.at({r, "allreduce"}),
              (done - des::SimTime::milliseconds(r)).ps())
        << "rank " << r;
  }
  const std::string profile = obs::profile(file);
  for (int r = 0; r < 4; ++r)
    EXPECT_NE(profile.find("rank " + std::to_string(r) + ":  allreduce="),
              std::string::npos)
        << profile;
  EXPECT_EQ(spans.open_spans(), 0u);
  EXPECT_EQ(spans.open_traces(), 0u);
}

}  // namespace
}  // namespace gtw::meta
