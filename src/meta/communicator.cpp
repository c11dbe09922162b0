#include "meta/communicator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

namespace gtw::meta {

Communicator::Communicator(Metacomputer& mc, std::vector<ProcLoc> ranks)
    : mc_(&mc), ranks_(std::move(ranks)), states_(ranks_.size()) {
  if (ranks_.empty())
    throw std::invalid_argument("Communicator: empty rank set");
}

Communicator::~Communicator() {
  for (const auto& [key, c] : collectives_) {
    for (const std::uint64_t span : c.spans) mc_->scheduler().abort_span(span);
    if (c.owns_trace) mc_->scheduler().abort_trace(c.ctx, "teardown");
  }
}

bool Communicator::matches(const PostedRecv& r, const Message& m) const {
  return (r.source == kAnySource || r.source == m.source) &&
         (r.tag == kAnyTag || r.tag == m.tag);
}

void Communicator::send(int src_rank, int dst_rank, int tag,
                        std::uint64_t bytes, std::any data) {
  const ProcLoc& src = location(src_rank);
  const ProcLoc& dst = location(dst_rank);

  // The message runs under the current trace, or under one minted here
  // and closed at delivery; either way it is a send on the source rank's
  // lane.  The caller's own context is restored on return.
  const bool wan = src.machine != dst.machine;
  des::Scheduler& sched = mc_->scheduler();
  des::TraceScope caller(sched);
  const bool minted = sched.tracing() && !caller.saved().valid();
  const des::TraceContext ctx =
      minted ? sched.mint(wan ? "comm.wan" : "comm.intra") : caller.saved();
  const des::TraceContext sent =
      sched.send_message(ctx, "comm", src_rank, dst_rank, bytes);
  const auto delivered = [this, dst_rank, sent, ctx, minted](Message m) {
    deliver(dst_rank, std::move(m), sent);
    if (minted) mc_->scheduler().close_trace(ctx);
  };

  Message msg{src_rank, tag, bytes, std::move(data)};
  if (!wan) {
    const des::SimTime cost = mc_->intra_cost(src.machine, units::Bytes{bytes});
    sched.schedule_after(cost, [delivered, msg = std::move(msg)]() mutable {
      delivered(std::move(msg));
    });
  } else {
    mc_->wan_send(src.machine, dst.machine, units::Bytes{bytes},
                  [delivered, msg = std::move(msg)]() mutable {
                    delivered(std::move(msg));
                  });
  }
}

void Communicator::recv(int rank, int source, int tag, RecvCallback cb) {
  RankState& st = states_.at(static_cast<std::size_t>(rank));
  // Try the unexpected queue first (arrival order preserved).
  for (auto it = st.unexpected.begin(); it != st.unexpected.end(); ++it) {
    PostedRecv probe{source, tag, nullptr};
    if (matches(probe, *it)) {
      Message msg = std::move(*it);
      st.unexpected.erase(it);
      cb(msg);
      return;
    }
  }
  st.recvs.push_back(PostedRecv{source, tag, std::move(cb)});
}

void Communicator::deliver(int dst_rank, Message msg,
                           des::TraceContext sent) {
  mc_->scheduler().recv_message(sent, "comm", dst_rank);
  RankState& st = states_.at(static_cast<std::size_t>(dst_rank));
  for (auto it = st.recvs.begin(); it != st.recvs.end(); ++it) {
    if (matches(*it, msg)) {
      RecvCallback cb = std::move(it->cb);
      st.recvs.erase(it);
      cb(msg);
      return;
    }
  }
  st.unexpected.push_back(std::move(msg));
}

// A collective's WAN pattern: the phases it runs between machines, in this
// order.  Up goes to the root's machine, down comes from it.  A
// personalized op (gather, scatter, alltoall) sends one unit per pair of
// ranks a leg stands for; the others send one unit per leg.
struct Communicator::CollectiveOp {
  const char* name;    // the span each rank's call is on its lane
  const char* origin;  // trace minted when none is current
  bool pairwise = false, up = false, down = false, personalized = false;
};

void Communicator::collective(int rank, const CollectiveOp& op, int root,
                              std::uint64_t unit, std::uint64_t intra_bytes,
                              std::any in,
                              std::function<void(const Collective&)> done) {
  RankState& rs = states_.at(static_cast<std::size_t>(rank));
  const std::uint64_t key = rs.collective_calls;
  Collective& c = collectives_[key];
  des::Scheduler& sched = mc_->scheduler();
  if (c.op == nullptr) {
    c.op = &op;
    c.root = root;
    c.in.resize(ranks_.size());
    c.done.resize(ranks_.size());
    c.spans.resize(ranks_.size());
    // The instance runs under the trace current at its first arrival, or
    // under comm.<op> minted here; the caller's own context is restored.
    des::TraceScope caller(sched);
    c.owns_trace = sched.tracing() && !caller.saved().valid();
    c.ctx = c.owns_trace ? sched.mint(op.origin) : caller.saved();
  } else if (c.op != &op || c.root != root) {
    throw std::invalid_argument(
        "Communicator: collective call " + std::to_string(key) + " of rank " +
        std::to_string(rank) + " is " + op.name + " (root " +
        std::to_string(root) + ") but another rank's is " + c.op->name +
        " (root " + std::to_string(c.root) + ")");
  }
  ++rs.collective_calls;
  // This rank waits in the call until the instance completes.
  const std::uint64_t span =
      sched.begin_span(c.ctx, des::SpanPhase::kQueueWait, "comm", op.name);
  sched.set_lane(span, des::Lane{rank});
  c.spans[static_cast<std::size_t>(rank)] = span;
  c.in[static_cast<std::size_t>(rank)] = std::move(in);
  c.done[static_cast<std::size_t>(rank)] = std::move(done);
  if (++c.arrived < size()) return;

  // Everyone is in.  n[m] counts the ranks on machine m; machines are
  // visited in order of their first rank.
  std::map<int, std::uint64_t> n;
  std::vector<int> machines;
  for (const ProcLoc& p : ranks_)
    if (n[p.machine]++ == 0) machines.push_back(p.machine);
  // An intra stage is a log2 tree on the slowest machine (closed form).
  for (const auto& [m, count] : n) {
    const int depth = count > 1
        ? static_cast<int>(std::ceil(std::log2(static_cast<double>(count))))
        : 0;
    c.intra = std::max(
        c.intra, mc_->intra_cost(m, units::Bytes{intra_bytes}) * depth);
  }
  // The WAN legs between machines; a personalized leg carries one unit per
  // pair of ranks it stands for.
  const int hub = location(root).machine;
  const auto leg_bytes = [&](std::uint64_t pairs) {
    return op.personalized ? unit * pairs : unit;
  };
  std::vector<WanLeg> pairwise, up, down;
  for (int a : machines) {
    if (op.pairwise)
      for (int b : machines)
        if (b != a) pairwise.push_back({a, b, leg_bytes(n[a] * n[b])});
    if (a == hub) continue;
    if (op.up) up.push_back({a, hub, leg_bytes(n[a])});
    if (op.down) down.push_back({hub, a, leg_bytes(n[a])});
  }
  for (std::vector<WanLeg>* phase : {&pairwise, &up, &down})
    if (!phase->empty()) c.phases.push_back(std::move(*phase));

  // The legs run under the instance's trace; complete() closes a minted one.
  des::TraceScope scope(sched, c.ctx);
  sched.schedule_after(c.intra, [this, key] { run_phase(key, 0); });
}

// Sends the legs of WAN phase `phase`; the last arrival starts the next
// phase, and after the last phase comes the closing intra stage.
void Communicator::run_phase(std::uint64_t key, std::size_t phase) {
  Collective& c = collectives_.at(key);
  des::TraceScope scope(mc_->scheduler(), c.ctx);
  if (phase == c.phases.size()) {
    mc_->scheduler().schedule_after(c.intra, [this, key] { complete(key); });
  } else {
    c.in_flight = c.phases[phase].size();
    for (const WanLeg& leg : c.phases[phase]) {
      mc_->wan_send(leg.from, leg.to, units::Bytes{leg.bytes},
                    [this, key, phase] {
                      if (--collectives_.at(key).in_flight == 0)
                        run_phase(key, phase + 1);
                    });
    }
  }
}

void Communicator::complete(std::uint64_t key) {
  const Collective& c = collectives_.at(key);
  for (std::size_t r = 0; r < c.done.size(); ++r) {
    mc_->scheduler().end_span(c.spans[r]);
    if (c.done[r]) c.done[r](c);
  }
  if (c.owns_trace) mc_->scheduler().close_trace(c.ctx);
  collectives_.erase(key);
}

void Communicator::barrier(int rank, Callback cb) {
  static constexpr CollectiveOp kOp{
      .name = "barrier", .origin = "comm.barrier", .up = true, .down = true};
  collective(rank, kOp, 0, 8, 8, {}, [cb = std::move(cb)](const Collective&) {
    if (cb) cb();
  });
}

void Communicator::broadcast(int rank, int root, std::uint64_t bytes,
                             std::function<void(const std::any&)> cb,
                             std::any root_data) {
  static constexpr CollectiveOp kOp{
      .name = "broadcast", .origin = "comm.broadcast", .down = true};
  collective(rank, kOp, root, bytes, bytes, std::move(root_data),
             [cb = std::move(cb)](const Collective& c) {
               cb(c.in[static_cast<std::size_t>(c.root)]);
             });
}

void Communicator::allreduce(int rank, const std::vector<double>& contribution,
                             ReduceOp op,
                             std::function<void(std::vector<double>)> cb) {
  static constexpr CollectiveOp kOp{
      .name = "allreduce", .origin = "comm.allreduce", .up = true,
      .down = true};
  const std::uint64_t bytes =
      std::max<std::uint64_t>(contribution.size() * sizeof(double), 8);
  collective(rank, kOp, 0, bytes, bytes, contribution,
             [op, cb = std::move(cb)](const Collective& c) {
    // Every rank reduces all contributions, in rank order.
    auto acc = std::any_cast<const std::vector<double>&>(c.in[0]);
    for (std::size_t i = 1; i < c.in.size(); ++i) {
      const auto& v = std::any_cast<const std::vector<double>&>(c.in[i]);
      for (std::size_t j = 0; j < acc.size() && j < v.size(); ++j) {
        switch (op) {
          case ReduceOp::kSum: acc[j] += v[j]; break;
          case ReduceOp::kMax: acc[j] = std::max(acc[j], v[j]); break;
          case ReduceOp::kMin: acc[j] = std::min(acc[j], v[j]); break;
        }
      }
    }
    cb(std::move(acc));
  });
}

void Communicator::gather(int rank, std::uint64_t bytes, std::any data,
                          int root,
                          std::function<void(std::vector<std::any>)> root_cb) {
  static constexpr CollectiveOp kOp{.name = "gather", .origin = "comm.gather",
                                    .up = true, .personalized = true};
  collective(rank, kOp, root, bytes, bytes, std::move(data),
             [is_root = rank == root,
              cb = std::move(root_cb)](const Collective& c) {
               if (is_root) cb(c.in);
             });
}

void Communicator::scatter(int rank, int root, std::uint64_t bytes_per_rank,
                           std::function<void(const std::any&)> cb,
                           std::vector<std::any> root_data) {
  static constexpr CollectiveOp kOp{.name = "scatter",
                                    .origin = "comm.scatter", .down = true,
                                    .personalized = true};
  collective(rank, kOp, root, bytes_per_rank, bytes_per_rank,
             std::move(root_data),
             [r = static_cast<std::size_t>(rank),
              cb = std::move(cb)](const Collective& c) {
               const auto& slices = std::any_cast<const std::vector<std::any>&>(
                   c.in[static_cast<std::size_t>(c.root)]);
               cb(r < slices.size() ? slices[r] : std::any{});
             });
}

void Communicator::alltoall(int rank, std::uint64_t bytes_per_pair,
                            std::vector<std::any> contributions,
                            std::function<void(std::vector<std::any>)> cb) {
  static constexpr CollectiveOp kOp{.name = "alltoall",
                                    .origin = "comm.alltoall",
                                    .pairwise = true, .personalized = true};
  // Each rank's intra stage moves its whole row of `size()` payloads.
  collective(rank, kOp, 0, bytes_per_pair,
             bytes_per_pair * static_cast<std::uint64_t>(size()),
             std::move(contributions),
             [r = static_cast<std::size_t>(rank),
              cb = std::move(cb)](const Collective& c) {
               // Column `r` of the contribution matrix.
               std::vector<std::any> column;
               column.reserve(c.in.size());
               for (const std::any& row : c.in) {
                 const auto& v =
                     std::any_cast<const std::vector<std::any>&>(row);
                 column.push_back(r < v.size() ? v[r] : std::any{});
               }
               cb(std::move(column));
             });
}

void Communicator::spawn(
    int machine, int n,
    std::function<void(std::shared_ptr<Communicator>)> cb) {
  const MachineSpec& spec = mc_->machine(machine);
  const des::SimTime startup = spec.spawn_base + spec.spawn_per_pe * n;
  mc_->scheduler().schedule_after(
      startup, [this, machine, n, cb = std::move(cb)]() {
        std::vector<ProcLoc> merged = ranks_;
        const int base = mc_->allocate_pes(machine, n);
        for (int i = 0; i < n; ++i)
          merged.push_back(ProcLoc{machine, base + i});
        cb(std::make_shared<Communicator>(*mc_, std::move(merged)));
      });
}

}  // namespace gtw::meta
