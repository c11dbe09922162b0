// MPI-flavoured communicator over the metacomputer, written in
// continuation-passing style (a discrete-event simulation cannot block).
//
// Supported subset, mirroring what the paper says MetaMPI provided:
//   - point-to-point send/recv with tag and source matching (wildcards),
//     routed intra-machine (interconnect model) or inter-machine (real
//     simulated TCP over the testbed);
//   - collectives: barrier, broadcast, allreduce, gather, scatter and
//     alltoall, all run by one engine: an intra-machine tree, then only the
//     bytes that must cross between machines over the WAN (each op's
//     pattern, DESIGN.md section 3), then the intra tree again -- the
//     hierarchical scheme a metacomputing-aware MPI uses;
//   - the MPI-2 dynamic processes the paper says "can be used for
//     realtime-visualization or computational steering": process creation
//     (spawn) here, and name-based connect/accept yielding
//     intercommunicators in meta/ports.hpp;
//   - VAMPIR integration (the paper's Metacomputing Tools project: "the
//     parallel tracing tool VAMPIR is extended for the use with this
//     library"): while a span hook is installed on the scheduler, ranks are
//     lanes, every point-to-point send and delivery is a message between
//     them, and each collective call is a span on the caller's lane from
//     its arrival to the instance's completion.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "meta/metacomputer.hpp"

namespace gtw::meta {

// Process location: which machine, which processing element on it.
struct ProcLoc {
  int machine = 0;
  int pe = 0;
};

struct Message {
  int source = -1;
  int tag = 0;
  std::uint64_t bytes = 0;
  std::any data;
};

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

enum class ReduceOp { kSum, kMax, kMin };

class Communicator {
 public:
  using RecvCallback = std::function<void(const Message&)>;
  using Callback = std::function<void()>;

  // A communicator over explicit process locations.
  Communicator(Metacomputer& mc, std::vector<ProcLoc> ranks);
  // Collectives still waiting for ranks retire their spans as aborted, so
  // the tracer's leak census stays clean.
  ~Communicator();
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int size() const { return static_cast<int>(ranks_.size()); }
  const ProcLoc& location(int rank) const {
    return ranks_.at(static_cast<std::size_t>(rank));
  }

  // --- point to point -----------------------------------------------------
  // The transport owns the bytes from here on.  A WAN message rides the
  // machines' PathTransport, whose TCP (and, on a multi-stream path, its
  // stall reset) recovers from an outage: the message arrives late, once.
  // Delivery drives the matching recv's callback at the receiver's
  // simulated time.
  void send(int src_rank, int dst_rank, int tag, std::uint64_t bytes,
            std::any data = {});
  void recv(int rank, int source, int tag, RecvCallback cb);

  // --- collectives ----------------------------------------------------------
  // Every rank must call.  A rank's k-th collective call joins every other
  // rank's k-th (MPI's matching rule), so a rank may have several
  // outstanding; one whose k-th call names a different op or root throws
  // std::invalid_argument.  Callbacks fire in rank order once the staged
  // communication (intra tree, WAN phases, intra tree) completes.
  void barrier(int rank, Callback cb);
  void broadcast(int rank, int root, std::uint64_t bytes,
                 std::function<void(const std::any&)> cb,
                 std::any root_data = {});
  void allreduce(int rank, const std::vector<double>& contribution,
                 ReduceOp op, std::function<void(std::vector<double>)> cb);
  void gather(int rank, std::uint64_t bytes, std::any data, int root,
              std::function<void(std::vector<std::any>)> root_cb);
  // Root distributes one payload per rank; every rank's callback receives
  // its slice.
  void scatter(int rank, int root, std::uint64_t bytes_per_rank,
               std::function<void(const std::any&)> cb,
               std::vector<std::any> root_data = {});
  // Every rank contributes one payload per destination; every rank's
  // callback receives the column addressed to it.
  void alltoall(int rank, std::uint64_t bytes_per_pair,
                std::vector<std::any> contributions,
                std::function<void(std::vector<std::any>)> cb);

  // --- MPI-2 dynamic processes ---------------------------------------------
  // Spawn `n` new processes on `machine`; yields an intercommunicator whose
  // local group is this communicator's ranks and whose remote group is the
  // spawned processes (appended after the local group).
  void spawn(int machine, int n,
             std::function<void(std::shared_ptr<Communicator> intercomm)> cb);

  Metacomputer& metacomputer() { return *mc_; }

 private:
  struct PostedRecv {
    int source;
    int tag;
    RecvCallback cb;
  };
  struct RankState {
    std::deque<PostedRecv> recvs;
    std::deque<Message> unexpected;
    std::uint64_t collective_calls = 0;  // index of this rank's next one
  };
  struct CollectiveOp;  // an op's WAN pattern; see communicator.cpp
  struct WanLeg {
    int from, to;
    std::uint64_t bytes;
  };
  // One collective instance: every rank's k-th collective call.
  struct Collective {
    const CollectiveOp* op = nullptr;
    int root = 0;
    int arrived = 0;
    std::vector<std::any> in;  // each rank's contribution
    std::vector<std::function<void(const Collective&)>> done;  // per rank
    std::vector<std::vector<WanLeg>> phases;
    std::size_t in_flight = 0;  // legs of the running phase
    des::SimTime intra;         // one intra-machine tree stage
    // Fixed at the first arrival: the current trace, or comm.<op> minted.
    des::TraceContext ctx;
    bool owns_trace = false;
    std::vector<std::uint64_t> spans;  // each rank's call, on its lane
  };

  void deliver(int dst_rank, Message msg, des::TraceContext sent);
  bool matches(const PostedRecv& r, const Message& m) const;
  // The collective engine.  Records `rank`'s next collective call; the
  // first rank in fixes the instance's trace, and the last starts the
  // staged run, whose WAN legs carry `unit` bytes (times the rank pairs of
  // a personalized leg) and whose intra stages move `intra_bytes`.  `done`
  // then runs with the instance, in rank order.
  void collective(int rank, const CollectiveOp& op, int root,
                  std::uint64_t unit, std::uint64_t intra_bytes, std::any in,
                  std::function<void(const Collective&)> done);
  void run_phase(std::uint64_t key, std::size_t phase);
  void complete(std::uint64_t key);

  Metacomputer* mc_;
  std::vector<ProcLoc> ranks_;
  std::vector<RankState> states_;
  std::map<std::uint64_t, Collective> collectives_;  // by call index
};

}  // namespace gtw::meta
