// M1 — the "Metacomputing Tools" project's own evaluation (the paper's
// companion reference [1], Eickermann/Grund/Henrichs, "Performance issues
// of distributed MPI applications in a German gigabit testbed"): latency
// and bandwidth of the meta communication library inside a machine vs
// between machines, collective cost as rank counts and machine splits
// grow, the WAN traffic each collective's pattern sends, and MPI-2
// spawn plus connect/accept attaching a client to a job.  The headline
// metacomputing lesson is the orders-of-magnitude gap between the two
// fabrics — the reason only loosely-coupled applications profit from the
// metacomputer.
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>

#include "meta/communicator.hpp"
#include "meta/ports.hpp"
#include "net/probe.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace gtw;

struct Rig {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  meta::Metacomputer mc{tb.scheduler()};
  int t3e, sp2;

  Rig() {
    meta::MachineSpec a;
    a.name = "T3E";
    a.max_pes = 512;
    a.frontend = &tb.t3e600();
    meta::MachineSpec b;
    b.name = "SP2";
    b.max_pes = 64;
    b.frontend = &tb.sp2();
    t3e = mc.add_machine(a);
    sp2 = mc.add_machine(b);
    net::TcpConfig cfg;
    cfg.mss = tb.options().atm_mtu - units::Bytes{40};
    cfg.recv_buffer = units::Bytes{1u << 20};
    mc.link_machines(t3e, sp2, cfg, 7000);
  }
};

// One message from rank 0 to rank 1; returns (latency of first byte-train,
// i.e. delivery time) in seconds.
double message_time(Rig& rig, bool cross_machine, std::uint64_t bytes) {
  std::vector<meta::ProcLoc> locs;
  locs.push_back({rig.t3e, 0});
  locs.push_back(cross_machine ? meta::ProcLoc{rig.sp2, 0}
                               : meta::ProcLoc{rig.t3e, 1});
  meta::Communicator comm(rig.mc, locs);
  const des::SimTime t0 = rig.tb.scheduler().now();
  des::SimTime t1 = t0;
  comm.recv(1, 0, 0, [&](const meta::Message&) {
    t1 = rig.tb.scheduler().now();
  });
  comm.send(0, 1, 0, bytes);
  rig.tb.scheduler().run();
  return (t1 - t0).sec();
}

void print_m1() {
  std::printf("== M1: meta-library performance, intra-machine vs WAN ==\n");
  std::printf("%10s | %14s | %14s | %8s\n", "message", "intra (T3E)",
              "inter (WAN)", "ratio");
  Rig rig;  // reused; each probe builds a fresh communicator
  for (std::uint64_t bytes : {0ull, 1024ull, 65536ull, 1048576ull,
                              8388608ull}) {
    Rig r1, r2;
    const double intra = message_time(r1, false, bytes);
    const double inter = message_time(r2, true, bytes);
    std::printf("%8llu B | %11.3f ms | %11.3f ms | %7.0fx\n",
                static_cast<unsigned long long>(bytes), intra * 1e3,
                inter * 1e3, inter / std::max(intra, 1e-12));
  }

  std::printf("\nbarrier cost vs rank layout (all ranks enter at t=0):\n");
  for (const auto& [na, nb] : {std::pair{4, 0}, std::pair{16, 0},
                               std::pair{2, 2}, std::pair{8, 8}}) {
    Rig r;
    std::vector<meta::ProcLoc> locs;
    for (int i = 0; i < na; ++i) locs.push_back({r.t3e, i});
    for (int i = 0; i < nb; ++i) locs.push_back({r.sp2, i});
    meta::Communicator comm(r.mc, std::move(locs));
    des::SimTime done;
    int remaining = na + nb;
    for (int rank = 0; rank < na + nb; ++rank) {
      comm.barrier(rank, [&]() {
        if (--remaining == 0) done = r.tb.scheduler().now();
      });
    }
    r.tb.scheduler().run();
    std::printf("  %2d T3E + %2d SP2 ranks: %8.3f ms %s\n", na, nb,
                done.ms(), nb > 0 ? "(crosses the WAN)" : "");
  }

  std::printf("\nraw path check (UDP echo, 56-byte probes):\n");
  {
    testbed::Testbed tb{testbed::TestbedOptions{}};
    net::EchoResponder echo(tb.sp2(), 9999);
    net::Pinger ping(tb.t3e600(), tb.sp2().id(), 9999, 10);
    ping.start([](const net::PingReport& rep) {
      std::printf("  t3e600 -> sp2: %d/%d replies, rtt %.3f ms mean "
                  "(min %.3f)\n", rep.received, rep.sent, rep.rtt_ms.mean(),
                  rep.rtt_ms.min());
    });
    tb.scheduler().run();
  }
  std::printf("\n");

  // Each collective once, on a fresh rig: the WAN messages and bytes of its
  // pattern (DESIGN.md section 3) and when its last callback fires.
  std::printf("collectives, 2 T3E + 2 SP2 ranks, 64 KiB payloads, allreduce "
              "of 2 doubles (all ranks enter at t=0):\n");
  std::printf("%10s | %8s | %10s | %10s\n", "op", "WAN msgs", "WAN bytes",
              "done");
  constexpr std::uint64_t b = 65536;
  using Done = std::function<void()>;
  using Enter = std::function<void(meta::Communicator&, int rank, Done)>;
  const std::pair<const char*, Enter> ops[] = {
      {"barrier",
       [](meta::Communicator& c, int r, Done d) { c.barrier(r, d); }},
      {"allreduce",
       [](meta::Communicator& c, int r, Done d) {
         c.allreduce(r, {1.0, 2.0}, meta::ReduceOp::kSum,
                     [d](std::vector<double>) { d(); });
       }},
      {"broadcast",
       [](meta::Communicator& c, int r, Done d) {
         c.broadcast(r, 0, b, [d](const std::any&) { d(); });
       }},
      {"gather",
       [](meta::Communicator& c, int r, Done d) {
         c.gather(r, b, {}, 0, [d](std::vector<std::any>) { d(); });
       }},
      {"scatter",
       [](meta::Communicator& c, int r, Done d) {
         c.scatter(r, 0, b, [d](const std::any&) { d(); });
       }},
      {"alltoall",
       [](meta::Communicator& c, int r, Done d) {
         c.alltoall(r, b, {}, [d](std::vector<std::any>) { d(); });
       }},
  };
  for (const auto& [name, enter] : ops) {
    Rig r;
    meta::Communicator comm(
        r.mc, {{r.t3e, 0}, {r.t3e, 1}, {r.sp2, 0}, {r.sp2, 1}});
    des::SimTime done;
    for (int rank = 0; rank < comm.size(); ++rank)
      enter(comm, rank, [&] { done = r.tb.scheduler().now(); });
    r.tb.scheduler().run();
    std::printf("%10s | %8llu | %10llu | %7.3f ms\n", name,
                static_cast<unsigned long long>(r.mc.wan_messages()),
                static_cast<unsigned long long>(r.mc.wan_bytes()), done.ms());
  }
  std::printf("\n");

  // MPI-2 dynamic processes, which the paper says "can be used for
  // realtime-visualization or computational steering": a 2-rank T3E job
  // spawns 4 SP2 PEs, a 1-rank visualization client on the SP2 attaches to
  // the grown job by name, and the job's rank 0 sends it one 1 MiB frame.
  std::printf("MPI-2 dynamic processes (all from t=0): 2 T3E ranks spawn 4 "
              "SP2 PEs; a 1-rank SP2 client attaches as \"fire-viz\"; the "
              "server sends it 1 MiB:\n");
  {
    Rig r;
    des::Scheduler& sched = r.tb.scheduler();
    auto job = std::make_shared<meta::Communicator>(
        r.mc, std::vector<meta::ProcLoc>{{r.t3e, 0}, {r.t3e, 1}});
    auto client = std::make_shared<meta::Communicator>(
        r.mc, std::vector<meta::ProcLoc>{{r.sp2, r.mc.allocate_pes(r.sp2, 1)}});
    meta::PortRegistry ports(r.mc);
    des::SimTime spawned, attached, delivered;
    int spawned_size = 0;
    meta::Intercomm server;  // keeps the attached communicator alive
    ports.connect("fire-viz", client,
                  [&](meta::Intercomm) { attached = sched.now(); });
    job->spawn(r.sp2, 4, [&](std::shared_ptr<meta::Communicator> inter) {
      spawned = sched.now();
      spawned_size = inter->size();
      ports.accept("fire-viz", inter, [&](meta::Intercomm ic) {
        server = ic;
        const int viz = ic.remote_offset;  // the client's rank
        ic.comm->recv(viz, 0, 1, [&](const meta::Message&) {
          delivered = sched.now();
        });
        ic.comm->send(0, viz, 1, 1u << 20);
      });
    });
    sched.run();
    std::printf("  intercomm ready (%d ranks)    : %9.3f ms\n", spawned_size,
                spawned.ms());
    std::printf("  client attached (%d ranks)    : %9.3f ms\n",
                server.comm->size(), attached.ms());
    std::printf("  1 MiB delivered to the client: %9.3f ms\n",
                delivered.ms());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_m1();
  return 0;
}
