#include "meta/communicator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

namespace gtw::meta {

std::uint32_t datatype_size(Datatype t) {
  switch (t) {
    case Datatype::kByte: return 1;
    case Datatype::kInt32: return 4;
    case Datatype::kInt64: return 8;
    case Datatype::kFloat32: return 4;
    case Datatype::kFloat64: return 8;
  }
  return 1;
}

Communicator::Communicator(Metacomputer& mc, std::vector<ProcLoc> ranks)
    : mc_(&mc), ranks_(std::move(ranks)), states_(ranks_.size()) {
  if (ranks_.empty())
    throw std::invalid_argument("Communicator: empty rank set");
}

Communicator::~Communicator() {
  if (collectives_.empty()) return;
  des::SpanHook* h = mc_->scheduler().span_hook();
  if (h == nullptr) return;
  const des::SimTime now = mc_->scheduler().now();
  for (const auto& [key, c] : collectives_) {
    for (const std::uint64_t span : c.spans) h->abort_span(span, now);
    if (c.owns_trace) h->abort_trace(c.ctx, "teardown", now);
  }
}

bool Communicator::matches(const PostedRecv& r, const Message& m) const {
  return (r.source == kAnySource || r.source == m.source) &&
         (r.tag == kAnyTag || r.tag == m.tag);
}

void Communicator::send(int src_rank, int dst_rank, int tag,
                        std::uint64_t bytes, std::any data, Callback on_sent) {
  const ProcLoc& src = location(src_rank);
  const ProcLoc& dst = location(dst_rank);
  ++messages_sent_;
  bytes_sent_ += bytes;
  PeerStats& peer = peer_traffic_[{src_rank, dst_rank}];
  ++peer.messages;
  peer.bytes += bytes;

  // The message runs under the current trace, or under one minted here
  // and closed at delivery; either way it is a send on the source rank's
  // lane.  The caller's own context is restored on return.
  const bool wan = src.machine != dst.machine;
  des::SpanHook* h = mc_->scheduler().span_hook();
  des::TraceContext prev, ctx, sent;
  bool minted = false;
  if (h != nullptr) {
    prev = h->current();
    minted = !prev.valid();
    ctx = minted ? h->mint(wan ? "comm.wan" : "comm.intra",
                           mc_->scheduler().now())
                 : prev;
    sent = h->send_message(ctx, "comm", src_rank, dst_rank, bytes,
                           mc_->scheduler().now());
  }
  const auto delivered = [this, dst_rank, sent, ctx,
                          minted](Message m) {
    deliver(dst_rank, std::move(m), sent);
    if (des::SpanHook* h2 = mc_->scheduler().span_hook();
        h2 != nullptr && minted)
      h2->close_trace(ctx, mc_->scheduler().now());
  };

  Message msg{src_rank, tag, bytes, std::move(data)};
  if (!wan) {
    const des::SimTime cost = mc_->intra_cost(src.machine, units::Bytes{bytes});
    mc_->scheduler().schedule_after(
        cost, [delivered, msg = std::move(msg)]() mutable {
          delivered(std::move(msg));
        });
  } else if (retry_enabled_) {
    auto st = std::make_shared<WanSendState>();
    st->src_rank = src_rank;
    st->dst_rank = dst_rank;
    st->src_machine = src.machine;
    st->dst_machine = dst.machine;
    st->bytes = bytes;
    st->msg = std::move(msg);
    st->next_timeout = retry_.timeout;
    // The library may retransmit this message, so the application buffer
    // stays pinned: on_sent is deferred to the first successful delivery
    // (and never fires if the message is reported unreachable).
    st->on_sent = std::exchange(on_sent, nullptr);
    st->ctx = ctx;
    st->owns_trace = minted;
    st->sent = sent;
    wan_attempt(std::move(st));
  } else {
    mc_->wan_send(src.machine, dst.machine, units::Bytes{bytes},
                  [delivered, msg = std::move(msg)]() mutable {
                    delivered(std::move(msg));
                  });
  }
  if (h != nullptr) h->adopt(prev);
  if (on_sent) on_sent();
}

void Communicator::wan_attempt(std::shared_ptr<WanSendState> st) {
  ++st->attempts;
  // Run the attempt under the message's trace: the transport spans of this
  // attempt — and the watchdog armed below — nest under st->ctx (or under
  // the retry-backoff span once one is open, so resent copies read as
  // children of the stall that caused them).
  des::SpanHook* h = mc_->scheduler().span_hook();
  des::TraceContext prev;
  if (h != nullptr) prev = h->adopt(des::under(st->ctx, st->retry_span));
  mc_->wan_send(st->src_machine, st->dst_machine, units::Bytes{st->bytes},
                [this, st]() {
    GTW_CHECK_HOOK(if (check_observer_ != nullptr)
                       check_observer_->on_wan_outcome(
                           st->src_rank, st->dst_rank,
                           !st->abandoned && !st->delivered, st->abandoned,
                           st->delivered));
    if (st->abandoned) {
      // The unreachable report already fired; the application has been told
      // this message failed, so a tardy copy must not resurrect it.
      ++reliability_.dropped_after_unreachable;
      return;
    }
    if (st->delivered) {
      // An earlier attempt's bytes finally made it through after a retry
      // was already issued (the simulated TCP is reliable, just late).
      ++reliability_.duplicates_suppressed;
      return;
    }
    st->delivered = true;
    st->watchdog.cancel();
    if (des::SpanHook* h2 = mc_->scheduler().span_hook(); h2 != nullptr) {
      h2->end_span(st->retry_span, mc_->scheduler().now());
      st->retry_span = 0;
    }
    if (st->on_sent) {
      Callback sent = std::move(st->on_sent);
      st->on_sent = nullptr;
      sent();
    }
    deliver(st->dst_rank, std::move(st->msg), st->sent);
    if (des::SpanHook* h2 = mc_->scheduler().span_hook();
        h2 != nullptr && st->owns_trace)
      h2->close_trace(st->ctx, mc_->scheduler().now());
  });
  st->watchdog = mc_->scheduler().schedule_after(st->next_timeout, [this, st]() {
    if (st->delivered) return;
    if (st->attempts > retry_.max_retries) {
      st->abandoned = true;
      ++reliability_.unreachable_reports;
      GTW_CHECK_HOOK(if (check_observer_ != nullptr)
                         check_observer_->on_unreachable(st->src_rank,
                                                         st->dst_rank));
      if (des::SpanHook* h2 = mc_->scheduler().span_hook(); h2 != nullptr) {
        // The message is dead: retire the retry span and the whole trace
        // as aborted so the tracer's leak census stays clean even though
        // no delivery will ever close them.
        h2->abort_span(st->retry_span, mc_->scheduler().now());
        st->retry_span = 0;
        if (st->owns_trace)
          h2->abort_trace(st->ctx, "unreachable", mc_->scheduler().now());
      }
      if (unreachable_)
        unreachable_(st->src_rank, st->dst_rank, st->attempts);
      return;
    }
    ++reliability_.wan_retries;
    ++peer_traffic_[{st->src_rank, st->dst_rank}].retries;
    if (des::SpanHook* h2 = mc_->scheduler().span_hook();
        h2 != nullptr && st->retry_span == 0 && st->ctx.valid()) {
      st->retry_span =
          h2->begin_span(st->ctx, des::SpanPhase::kRetryBackoff, "comm",
                         "retry", mc_->scheduler().now());
    }
    st->next_timeout =
        des::SimTime::seconds(st->next_timeout.sec() * retry_.backoff);
    if (st->next_timeout > retry_.max_timeout)
      st->next_timeout = retry_.max_timeout;
    wan_attempt(st);
  });
  if (h != nullptr) h->adopt(prev);
}

void Communicator::send_typed(int src_rank, int dst_rank, int tag,
                              std::uint64_t count, Datatype type,
                              std::any data, Callback on_sent) {
  send(src_rank, dst_rank, tag, count * datatype_size(type), std::move(data),
       std::move(on_sent));
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
  if (des::SpanHook* h = mc_->scheduler().span_hook(); h != nullptr)
    h->recv_message(sent, "comm", dst_rank, mc_->scheduler().now());
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
  des::SpanHook* h = mc_->scheduler().span_hook();
  const des::SimTime now = mc_->scheduler().now();
  if (c.op == nullptr) {
    c.op = &op;
    c.root = root;
    c.in.resize(ranks_.size());
    c.done.resize(ranks_.size());
    c.spans.resize(ranks_.size());
    // The instance runs under the trace current at its first arrival, or
    // under comm.<op> minted here; the caller's own context is restored.
    if (h != nullptr) {
      const des::TraceContext prev = h->current();
      c.owns_trace = !prev.valid();
      c.ctx = c.owns_trace ? h->mint(op.origin, now) : prev;
      h->adopt(prev);
    }
  } else if (c.op != &op || c.root != root) {
    throw std::invalid_argument(
        "Communicator: collective call " + std::to_string(key) + " of rank " +
        std::to_string(rank) + " is " + op.name + " (root " +
        std::to_string(root) + ") but another rank's is " + c.op->name +
        " (root " + std::to_string(c.root) + ")");
  }
  ++rs.collective_calls;
  if (h != nullptr) {
    // This rank waits in the call until the instance completes.
    const std::uint64_t span = h->begin_span(
        c.ctx, des::SpanPhase::kQueueWait, "comm", op.name, now);
    h->set_lane(span, des::Lane{rank});
    c.spans[static_cast<std::size_t>(rank)] = span;
  }
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
  des::TraceContext prev;
  if (h != nullptr) prev = h->adopt(c.ctx);
  mc_->scheduler().schedule_after(c.intra, [this, key] { run_phase(key, 0); });
  if (h != nullptr) h->adopt(prev);
}

// Sends the legs of WAN phase `phase`; the last arrival starts the next
// phase, and after the last phase comes the closing intra stage.
void Communicator::run_phase(std::uint64_t key, std::size_t phase) {
  Collective& c = collectives_.at(key);
  des::SpanHook* h = mc_->scheduler().span_hook();
  des::TraceContext prev;
  if (h != nullptr) prev = h->adopt(c.ctx);
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
  if (h != nullptr) h->adopt(prev);
}

void Communicator::complete(std::uint64_t key) {
  const Collective& c = collectives_.at(key);
  for (std::size_t r = 0; r < c.done.size(); ++r) {
    if (des::SpanHook* h = mc_->scheduler().span_hook(); h != nullptr)
      h->end_span(c.spans[r], mc_->scheduler().now());
    if (c.done[r]) c.done[r](c);
  }
  if (des::SpanHook* h = mc_->scheduler().span_hook();
      h != nullptr && c.owns_trace)
    h->close_trace(c.ctx, mc_->scheduler().now());
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

void Communicator::sendrecv(int rank, int dst, int send_tag,
                            std::uint64_t send_bytes, std::any send_data,
                            int src, int recv_tag, RecvCallback cb) {
  recv(rank, src, recv_tag, std::move(cb));
  send(rank, dst, send_tag, send_bytes, std::move(send_data));
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
