#include "flow/stage.hpp"

namespace gtw::flow {

StageConfig compute_stage(std::string name,
                          std::function<des::SimTime(const Item&)> duration,
                          int concurrency) {
  StageConfig cfg;
  cfg.name = std::move(name);
  cfg.concurrency = concurrency;
  cfg.body = [duration = std::move(duration)](StageContext ctx, Item& it,
                                              Done done) {
    ctx.scheduler().schedule_after(duration(it), std::move(done));
  };
  return cfg;
}

StageConfig delay_stage(std::string name, des::SimTime delay,
                        int concurrency) {
  StageConfig cfg;
  cfg.name = std::move(name);
  cfg.concurrency = concurrency;
  cfg.body = [delay](StageContext ctx, Item&, Done done) {
    ctx.scheduler().schedule_after(delay, std::move(done));
  };
  return cfg;
}

StageConfig inline_stage(std::string name,
                         std::function<void(StageContext, Item&)> fn,
                         int concurrency) {
  StageConfig cfg;
  cfg.name = std::move(name);
  cfg.concurrency = concurrency;
  cfg.body = [fn = std::move(fn)](StageContext ctx, Item& it, Done done) {
    fn(ctx, it);
    done();
  };
  return cfg;
}

StageConfig tcp_transfer_stage(std::string name, net::TcpConnection& conn,
                               int side,
                               std::function<units::Bytes(const Item&)> bytes,
                               int concurrency) {
  StageConfig cfg;
  cfg.name = std::move(name);
  cfg.concurrency = concurrency;
  cfg.body = [&conn, side, bytes = std::move(bytes)](StageContext ctx,
                                                     Item& it, Done done) {
    const units::Bytes n = bytes ? bytes(it) : units::Bytes::zero();
    const des::TraceContext sent = ctx.trace_send(ctx.stage + 1, n);
    conn.send(side, n, {},
              [ctx, sent, done = std::move(done)](const std::any&,
                                                  des::SimTime) {
                ctx.trace_recv(ctx.stage + 1, sent);
                done();
              });
  };
  return cfg;
}

StageConfig datagram_transfer_stage(
    std::string name, net::DatagramSocket& socket, net::HostId dst,
    std::uint16_t dst_port, std::function<units::Bytes(const Item&)> bytes,
    bool number_frames, int concurrency) {
  StageConfig cfg;
  cfg.name = std::move(name);
  cfg.concurrency = concurrency;
  cfg.body = [&socket, dst, dst_port, bytes = std::move(bytes),
              number_frames](StageContext ctx, Item& it, Done done) {
    const units::Bytes n = bytes ? bytes(it) : units::Bytes::zero();
    // Datagrams record only the send: loss shows up at the receiver.
    ctx.trace_send(ctx.stage + 1, n);
    socket.send_to(dst, dst_port, n,
                   number_frames
                       ? std::any{static_cast<std::int64_t>(it.index)}
                       : std::any{});
    done();
  };
  return cfg;
}

PeriodicSource::PeriodicSource(StageGraph& graph, Config cfg,
                               PayloadFn payload,
                               std::function<void()> on_last)
    : graph_(graph), cfg_(cfg), payload_(std::move(payload)),
      on_last_(std::move(on_last)) {}

void PeriodicSource::start() {
  if (cfg_.immediate_first) {
    tick();
    return;
  }
  timer_ = graph_.scheduler().schedule_after(des::SimTime::zero(),
                                             [this]() { tick(); });
}

void PeriodicSource::tick() {
  const int idx = emitted_++;
  graph_.push(idx, payload_ ? payload_(idx) : std::any{});
  if (cfg_.count != 0 && emitted_ >= cfg_.count) {
    if (on_last_) on_last_();
    return;
  }
  timer_ = graph_.scheduler().schedule_after(cfg_.interval,
                                             [this]() { tick(); });
}

}  // namespace gtw::flow
