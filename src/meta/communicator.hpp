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
//   - MPI-2 features called out in the paper: dynamic process creation
//     (spawn), and name-based connect/accept yielding intercommunicators
//     (used by FIRE for realtime visualization attachment), plus typed
//     datatypes for language interoperability;
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

#include "des/check_hook.hpp"
#include "meta/metacomputer.hpp"

namespace gtw::meta {

// GTW-San observer (check::attach_communicator): notified at the outcome
// decision of every watchdog-guarded WAN delivery and at every unreachable
// report, so the sanitizer can prove the retry policy's contract — a
// message reported unreachable is never afterwards handed to the
// application.  Notification-only; must not call back into the
// communicator.  The interface and registration slot exist in every build;
// the notifying call sites are GTW_CHECK_HOOK-guarded and compile away
// when checking is off.
struct CommCheckObserver {
  virtual ~CommCheckObserver() = default;
  // A WAN copy arrived.  Exactly one of the three describes its fate:
  // handed to the application, suppressed as a duplicate of an earlier
  // delivery, or dropped because the message was already abandoned.
  virtual void on_wan_outcome(int src_rank, int dst_rank,
                              bool delivered_to_app, bool after_abandon,
                              bool duplicate) = 0;
  virtual void on_unreachable(int src_rank, int dst_rank) = 0;
};

// Process location: which machine, which processing element on it.
struct ProcLoc {
  int machine = 0;
  int pe = 0;
};

// Language-interoperability datatypes (MPI-2 brings bindings whose element
// sizes must agree across languages; we carry them so message sizes are
// computed identically on both sides).
enum class Datatype : std::uint8_t {
  kByte,
  kInt32,
  kInt64,
  kFloat32,
  kFloat64,
};
std::uint32_t datatype_size(Datatype t);

struct Message {
  int source = -1;
  int tag = 0;
  std::uint64_t bytes = 0;
  std::any data;
};

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

enum class ReduceOp { kSum, kMax, kMin };

// Failure handling for WAN point-to-point traffic (MPWide-style: WAN
// messaging libraries treat path degradation and reconnection as their
// problem, not the application's).  A watchdog per WAN send retransmits
// with exponential backoff; a delivery seen after a retransmission was
// issued is suppressed as a duplicate, and a message whose retries are
// exhausted is reported through the unreachable callback instead of
// hanging the application forever.
struct RetryPolicy {
  des::SimTime timeout = des::SimTime::seconds(2);  // first-attempt watchdog
  int max_retries = 3;                              // beyond the first send
  double backoff = 2.0;                             // timeout multiplier
  // Ceiling on the backed-off watchdog timeout.  Without it the doubling
  // grows without bound and a high-retry policy ends up waiting simulated
  // hours between attempts long after the path has recovered.
  des::SimTime max_timeout = des::SimTime::seconds(30);
};

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
  // `on_sent` fires at local completion (buffer reusable).  For sends not
  // guarded by a retry watchdog that is immediate — the transport owns the
  // bytes from here on.  Under a retry policy the library may retransmit, so
  // the buffer stays pinned: `on_sent` is deferred to the first successful
  // delivery and never fires for a message reported unreachable.  Delivery
  // drives the matching recv's callback at the receiver's simulated time.
  void send(int src_rank, int dst_rank, int tag, std::uint64_t bytes,
            std::any data = {}, Callback on_sent = nullptr);
  void send_typed(int src_rank, int dst_rank, int tag, std::uint64_t count,
                  Datatype type, std::any data = {}, Callback on_sent = nullptr);
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
  // Combined send+recv, the classic halo-exchange primitive.
  void sendrecv(int rank, int dst, int send_tag, std::uint64_t send_bytes,
                std::any send_data, int src, int recv_tag, RecvCallback cb);

  // --- MPI-2 dynamic processes ---------------------------------------------
  // Spawn `n` new processes on `machine`; yields an intercommunicator whose
  // local group is this communicator's ranks and whose remote group is the
  // spawned processes (appended after the local group).
  void spawn(int machine, int n,
             std::function<void(std::shared_ptr<Communicator> intercomm)> cb);

  Metacomputer& metacomputer() { return *mc_; }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  // --- failure handling ------------------------------------------------------
  // Enable watchdog/retry on WAN point-to-point sends.  Off by default:
  // the simulated TCP transport is reliable, so retries only matter when a
  // FaultPlan (or manual Link::set_up) breaks the path mid-run.
  void set_retry_policy(RetryPolicy policy) {
    retry_ = policy;
    retry_enabled_ = true;
  }
  // `attempts` counts every transmission of the abandoned message.
  using UnreachableCallback =
      std::function<void(int src_rank, int dst_rank, int attempts)>;
  void on_unreachable(UnreachableCallback cb) { unreachable_ = std::move(cb); }

  struct ReliabilityStats {
    std::uint64_t wan_retries = 0;           // watchdog-triggered resends
    std::uint64_t duplicates_suppressed = 0; // late originals after a retry
    std::uint64_t unreachable_reports = 0;   // messages given up on
    // Late deliveries of a message already reported unreachable: dropped, so
    // the application never sees a recv for a message it was told failed.
    std::uint64_t dropped_after_unreachable = 0;
  };
  const ReliabilityStats& reliability() const { return reliability_; }

  // Per-(src rank, dst rank) point-to-point accounting, for the per-peer
  // breakdown the obs layer exports (collectives are not attributed here).
  struct PeerStats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t retries = 0;  // watchdog resends on this pair
  };
  const std::map<std::pair<int, int>, PeerStats>& peer_traffic() const {
    return peer_traffic_;
  }

  void set_check_observer(CommCheckObserver* obs) { check_observer_ = obs; }

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

  // In-flight state of one watchdog-guarded WAN message.
  struct WanSendState {
    int src_rank = 0, dst_rank = 0;
    int src_machine = 0, dst_machine = 0;
    std::uint64_t bytes = 0;
    Message msg;
    int attempts = 0;
    bool delivered = false;
    bool abandoned = false;  // unreachable reported; late copies are dropped
    des::SimTime next_timeout;
    des::EventHandle watchdog;
    Callback on_sent;  // deferred until the first successful delivery
    // Causal trace of the guarded message (obs): minted here when the send
    // is a workload origin; every attempt's transport spans nest under it.
    des::TraceContext ctx;
    bool owns_trace = false;
    des::TraceContext sent;  // the send, which the delivery's recv names
    // Open retry-backoff span: begun when the first watchdog-triggered
    // resend is issued, ended at delivery, aborted on unreachable.
    std::uint64_t retry_span = 0;
  };

  void deliver(int dst_rank, Message msg, des::TraceContext sent);
  void wan_attempt(std::shared_ptr<WanSendState> st);
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
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::map<std::pair<int, int>, PeerStats> peer_traffic_;
  RetryPolicy retry_;
  bool retry_enabled_ = false;
  UnreachableCallback unreachable_;
  ReliabilityStats reliability_;
  CommCheckObserver* check_observer_ = nullptr;
};

}  // namespace gtw::meta
