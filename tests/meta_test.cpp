#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "des/scheduler.hpp"
#include "meta/communicator.hpp"
#include "meta/metacomputer.hpp"
#include "meta/ports.hpp"
#include "net/atm.hpp"
#include "net/host.hpp"
#include "net/units.hpp"

namespace gtw::meta {
namespace {

// Two machines whose front-ends are joined by one ATM switch.
struct MetaFixture {
  des::Scheduler sched;
  net::Host fe_a{sched, "fe_a", 1};
  net::Host fe_b{sched, "fe_b", 2};
  net::AtmSwitch sw{sched, "sw"};
  net::AtmNic nic_a{sched, fe_a, "a.atm",
                    net::Link::Config{units::BitRate::mbps(622.0),
                                      des::SimTime::microseconds(250),
                                      units::Bytes{16u << 20},
                                      des::SimTime::zero()}};
  net::AtmNic nic_b{sched, fe_b, "b.atm",
                    net::Link::Config{units::BitRate::mbps(622.0),
                                      des::SimTime::microseconds(250),
                                      units::Bytes{16u << 20},
                                      des::SimTime::zero()}};
  net::VcAllocator vcs;
  Metacomputer mc{sched};
  int t3e = -1, sp2 = -1;

  MetaFixture() {
    auto cfg = net::Link::Config{units::BitRate::mbps(622.0),
                                 des::SimTime::microseconds(250),
                                 units::Bytes{16u << 20},
                                 des::SimTime::zero()};
    const int pa = sw.add_port(cfg);
    const int pb = sw.add_port(cfg);
    sw.connect_ingress(pa, nic_a.uplink());
    sw.connect_ingress(pb, nic_b.uplink());
    sw.connect_egress(pa, nic_a.ingress());
    sw.connect_egress(pb, nic_b.ingress());
    vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
    fe_a.add_route(2, &nic_a, 2);
    fe_b.add_route(1, &nic_b, 1);

    MachineSpec a;
    a.name = "T3E";
    a.max_pes = 512;
    a.frontend = &fe_a;
    MachineSpec b;
    b.name = "SP2";
    b.max_pes = 64;
    b.frontend = &fe_b;
    t3e = mc.add_machine(a);
    sp2 = mc.add_machine(b);
    mc.link_machines(t3e, sp2, net::TcpConfig{}, 7000);
  }

  std::shared_ptr<Communicator> world(int pes_a, int pes_b) {
    std::vector<ProcLoc> ranks;
    for (int i = 0; i < pes_a; ++i) ranks.push_back({t3e, i});
    for (int i = 0; i < pes_b; ++i) ranks.push_back({sp2, i});
    return std::make_shared<Communicator>(mc, std::move(ranks));
  }
};

TEST(CommunicatorTest, IntraMachineSendRecv) {
  MetaFixture f;
  auto comm = f.world(4, 0);
  bool got = false;
  comm->recv(1, 0, 7, [&](const Message& m) {
    got = true;
    EXPECT_EQ(m.source, 0);
    EXPECT_EQ(m.tag, 7);
    EXPECT_EQ(m.bytes, 1000u);
    EXPECT_EQ(std::any_cast<int>(m.data), 42);
  });
  comm->send(0, 1, 7, 1000, std::any{42});
  f.sched.run();
  EXPECT_TRUE(got);
}

TEST(CommunicatorTest, InterMachineSendGoesOverWan) {
  MetaFixture f;
  auto comm = f.world(2, 2);
  bool got = false;
  des::SimTime when;
  comm->recv(2, 0, 1, [&](const Message& m) {
    got = true;
    when = f.sched.now();
    EXPECT_EQ(m.bytes, 100'000u);
  });
  comm->send(0, 2, 1, 100'000);
  f.sched.run();
  EXPECT_TRUE(got);
  EXPECT_GT(f.mc.wan_messages(), 0u);
  // A WAN hop with 2x250 us propagation per direction cannot be faster
  // than the propagation plus serialization.
  EXPECT_GT(when.ms(), 1.0);
}

TEST(CommunicatorTest, UnexpectedMessageBuffered) {
  MetaFixture f;
  auto comm = f.world(2, 0);
  comm->send(0, 1, 5, 64, std::any{1});
  f.sched.run();  // message arrives before the recv is posted
  bool got = false;
  comm->recv(1, 0, 5, [&](const Message&) { got = true; });
  EXPECT_TRUE(got);  // matched synchronously from the unexpected queue
}

TEST(CommunicatorTest, WildcardMatching) {
  MetaFixture f;
  auto comm = f.world(3, 0);
  int from = -1, tag = -1;
  comm->recv(2, kAnySource, kAnyTag, [&](const Message& m) {
    from = m.source;
    tag = m.tag;
  });
  comm->send(1, 2, 99, 8);
  f.sched.run();
  EXPECT_EQ(from, 1);
  EXPECT_EQ(tag, 99);
}

TEST(CommunicatorTest, TagSelectivity) {
  MetaFixture f;
  auto comm = f.world(2, 0);
  std::vector<int> order;
  comm->recv(1, 0, 2, [&](const Message&) { order.push_back(2); });
  comm->recv(1, 0, 1, [&](const Message&) { order.push_back(1); });
  comm->send(0, 1, 1, 8);
  comm->send(0, 1, 2, 8);
  f.sched.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // tag-1 recv matched the tag-1 message
  EXPECT_EQ(order[1], 2);
}

TEST(CommunicatorTest, BarrierReleasesAllRanksTogether) {
  MetaFixture f;
  auto comm = f.world(3, 2);
  int released = 0;
  std::vector<des::SimTime> times;
  for (int r = 0; r < comm->size(); ++r) {
    // Ranks enter at staggered times.
    f.sched.schedule_at(des::SimTime::milliseconds(r * 10), [&, r]() {
      comm->barrier(r, [&]() {
        ++released;
        times.push_back(f.sched.now());
      });
    });
  }
  f.sched.run();
  EXPECT_EQ(released, 5);
  // Nobody is released before the last rank has entered (40 ms).
  for (const auto& t : times) EXPECT_GE(t.ms(), 40.0);
}

TEST(CommunicatorTest, AllreduceSumAcrossMachines) {
  MetaFixture f;
  auto comm = f.world(2, 2);
  int done = 0;
  for (int r = 0; r < 4; ++r) {
    comm->allreduce(r, {static_cast<double>(r + 1), 10.0}, ReduceOp::kSum,
                    [&done](std::vector<double> result) {
                      ++done;
                      ASSERT_EQ(result.size(), 2u);
                      EXPECT_DOUBLE_EQ(result[0], 10.0);  // 1+2+3+4
                      EXPECT_DOUBLE_EQ(result[1], 40.0);
                    });
  }
  f.sched.run();
  EXPECT_EQ(done, 4);
}

TEST(CommunicatorTest, AllreduceMaxMin) {
  MetaFixture f;
  auto comm = f.world(3, 0);
  int done = 0;
  for (int r = 0; r < 3; ++r) {
    comm->allreduce(r, {static_cast<double>(r)}, ReduceOp::kMax,
                    [&](std::vector<double> v) {
                      ++done;
                      EXPECT_DOUBLE_EQ(v[0], 2.0);
                    });
  }
  f.sched.run();
  for (int r = 0; r < 3; ++r) {
    comm->allreduce(r, {static_cast<double>(r)}, ReduceOp::kMin,
                    [&](std::vector<double> v) {
                      ++done;
                      EXPECT_DOUBLE_EQ(v[0], 0.0);
                    });
  }
  f.sched.run();
  EXPECT_EQ(done, 6);
}

TEST(CommunicatorTest, OutstandingAllreducesMatchByCallIndex) {
  // Each rank's k-th call joins the other ranks' k-th, even when a rank
  // enters its second allreduce before the first has completed.
  MetaFixture f;
  auto comm = f.world(1, 1);
  std::vector<std::vector<double>> got[2];
  for (int r = 0; r < 2; ++r) {
    for (double scale : {1.0, 10.0}) {
      comm->allreduce(r, {scale * (r + 1)}, ReduceOp::kSum,
                      [&got, r](std::vector<double> v) {
                        got[r].push_back(std::move(v));
                      });
    }
  }
  f.sched.run();
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(got[r], (std::vector<std::vector<double>>{{3.0}, {30.0}}));
  }
}

TEST(CommunicatorTest, MismatchedCollectiveCallThrows) {
  MetaFixture f;
  auto comm = f.world(2, 0);
  comm->barrier(0, nullptr);
  EXPECT_THROW(comm->allreduce(1, {1.0}, ReduceOp::kSum,
                               [](std::vector<double>) {}),
               std::invalid_argument);
  // The failed call was not counted: rank 1's barrier still completes the
  // instance.  A different root at the same call index is a mismatch too.
  bool released = false;
  comm->barrier(1, [&] { released = true; });
  comm->broadcast(0, /*root=*/0, 64, [](const std::any&) {});
  EXPECT_THROW(comm->broadcast(1, /*root=*/1, 64, [](const std::any&) {}),
               std::invalid_argument);
  f.sched.run();
  EXPECT_TRUE(released);
}

TEST(CommunicatorTest, BroadcastDeliversRootData) {
  MetaFixture f;
  auto comm = f.world(2, 2);
  int got = 0;
  for (int r = 0; r < 4; ++r) {
    comm->broadcast(r, /*root=*/1, 4096,
                    [&](const std::any& data) {
                      ++got;
                      EXPECT_EQ(std::any_cast<int>(data), 777);
                    },
                    r == 1 ? std::any{777} : std::any{});
  }
  f.sched.run();
  EXPECT_EQ(got, 4);
}

TEST(CommunicatorTest, GatherCollectsAllContributions) {
  MetaFixture f;
  auto comm = f.world(2, 1);
  bool done = false;
  for (int r = 0; r < 3; ++r) {
    comm->gather(r, 128, std::any{r * 11}, /*root=*/0,
                 r == 0 ? std::function<void(std::vector<std::any>)>(
                              [&](std::vector<std::any> all) {
                                done = true;
                                ASSERT_EQ(all.size(), 3u);
                                EXPECT_EQ(std::any_cast<int>(all[0]), 0);
                                EXPECT_EQ(std::any_cast<int>(all[1]), 11);
                                EXPECT_EQ(std::any_cast<int>(all[2]), 22);
                              })
                        : nullptr);
  }
  f.sched.run();
  EXPECT_TRUE(done);
}

TEST(CommunicatorTest, SpawnCreatesIntercomm) {
  MetaFixture f;
  auto comm = f.world(2, 0);
  std::shared_ptr<Communicator> inter;
  comm->spawn(f.sp2, 4, [&](std::shared_ptr<Communicator> c) { inter = c; });
  f.sched.run();
  ASSERT_NE(inter, nullptr);
  EXPECT_EQ(inter->size(), 6);  // 2 local + 4 spawned
  EXPECT_EQ(inter->location(2).machine, f.sp2);
  // Startup took at least the configured spawn latency.
  EXPECT_GE(f.sched.now().ms(), 100.0);
}

TEST(CommunicatorTest, SpawnExhaustionThrows) {
  MetaFixture f;
  EXPECT_THROW(f.mc.allocate_pes(f.sp2, 1000), std::runtime_error);
}

TEST(PortsTest, ConnectAcceptRendezvous) {
  MetaFixture f;
  PortRegistry ports(f.mc);
  auto server = f.world(2, 0);
  std::vector<ProcLoc> client_ranks{{f.sp2, 0}};
  auto client = std::make_shared<Communicator>(f.mc, client_ranks);

  Intercomm got_server, got_client;
  ports.accept("fire-viz", server, [&](Intercomm ic) { got_server = ic; });
  EXPECT_TRUE(ports.has_pending_accept("fire-viz"));
  ports.connect("fire-viz", client, [&](Intercomm ic) { got_client = ic; });
  f.sched.run();

  ASSERT_NE(got_server.comm, nullptr);
  ASSERT_NE(got_client.comm, nullptr);
  EXPECT_EQ(got_server.comm->size(), 3);
  EXPECT_EQ(got_server.local_size, 2);
  EXPECT_EQ(got_client.local_size, 1);
  EXPECT_EQ(got_client.local_offset, 2);

  // The intercomm must carry real traffic between the groups.
  bool got = false;
  got_server.comm->recv(0, 2, 3, [&](const Message&) { got = true; });
  got_client.comm->send(2, 0, 3, 512);
  f.sched.run();
  EXPECT_TRUE(got);
}

TEST(PortsTest, ConnectBeforeAcceptAlsoWorks) {
  MetaFixture f;
  PortRegistry ports(f.mc);
  auto a = f.world(1, 0);
  auto b = f.world(0, 1);
  bool ok_a = false, ok_b = false;
  ports.connect("x", b, [&](Intercomm) { ok_b = true; });
  ports.accept("x", a, [&](Intercomm) { ok_a = true; });
  f.sched.run();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
}

TEST(MetacomputerTest, WanSendRequiresLink) {
  des::Scheduler sched;
  Metacomputer mc(sched);
  MachineSpec a, b;
  a.max_pes = b.max_pes = 4;
  const int ma = mc.add_machine(a);
  const int mb = mc.add_machine(b);
  EXPECT_FALSE(mc.linked(ma, mb));
  EXPECT_THROW(mc.wan_send(ma, mb, units::Bytes{100}, nullptr),
               std::runtime_error);
}

TEST(MetacomputerTest, IntraCostScalesWithBytes) {
  des::Scheduler sched;
  Metacomputer mc(sched);
  MachineSpec a;
  a.intra_latency = des::SimTime::microseconds(1);
  a.intra_bandwidth = units::BitRate::bps(8e9);  // 1 GB/s
  const int m = mc.add_machine(a);
  EXPECT_NEAR(mc.intra_cost(m, units::Bytes::zero()).us(), 1.0, 1e-9);
  // 1 MB at 1 GB/s = 1 ms + 1 us latency.
  EXPECT_NEAR(mc.intra_cost(m, units::Bytes{1'000'000}).us(), 1001.0, 0.1);
}

}  // namespace
}  // namespace gtw::meta
