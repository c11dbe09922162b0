#include "apps/video.hpp"

namespace gtw::apps {

D1VideoSession::D1VideoSession(net::Host& source, net::Host& sink,
                               D1VideoConfig cfg, std::uint16_t port_base)
    : cfg_(cfg), sink_(sink, port_base), sched_(source.scheduler()),
      socket_(source, static_cast<std::uint16_t>(port_base + 1)),
      interval_(des::SimTime::seconds(1.0 / cfg.fps)),
      graph_(source.scheduler()),
      source_(graph_,
              flow::PeriodicSource::Config{interval_, cfg.frames, false}) {
  graph_.add_stage(flow::datagram_transfer_stage(
      "uplink", socket_, sink.id(), port_base,
      [this](const flow::Item&) { return cfg_.frame_bytes(); }));
}

void D1VideoSession::start() {
  started_ = sched_.now();
  source_.start();
}

D1VideoReport D1VideoSession::report() const {
  D1VideoReport rep;
  rep.frames_sent = static_cast<std::uint64_t>(source_.emitted());
  rep.frames_received = sink_.frames_received();
  // The session knows both ends.  A frame with any dropped fragment never
  // completes reassembly, so the sink alone could not see its loss.
  rep.frames_lost = rep.frames_sent >= rep.frames_received
                        ? rep.frames_sent - rep.frames_received
                        : 0;
  rep.offered = interval_ > des::SimTime::zero()
                    ? units::per(cfg_.frame_bytes().to_bits(), interval_)
                    : units::BitRate::bps(0.0);
  const des::SimTime span = sched_.now() - started_;
  rep.goodput = sink_.goodput(span);
  rep.jitter_ms = sink_.interarrival_ms().stddev();
  rep.feasible = rep.frames_sent > 0 &&
                 rep.frames_received * 100 >= rep.frames_sent * 99;
  return rep;
}

}  // namespace gtw::apps
