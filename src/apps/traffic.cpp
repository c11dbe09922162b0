#include "apps/traffic.hpp"

#include <algorithm>

namespace gtw::apps {

NaschRoad::NaschRoad(NaschConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  // Place vehicles on distinct random cells.
  const int n = static_cast<int>(cfg_.density * cfg_.cells);
  std::vector<std::uint8_t> used(static_cast<std::size_t>(cfg_.cells), 0);
  int placed = 0;
  while (placed < n) {
    const int c = static_cast<int>(rng_.uniform_int(
        static_cast<std::uint64_t>(cfg_.cells)));
    if (used[static_cast<std::size_t>(c)]) continue;
    used[static_cast<std::size_t>(c)] = 1;
    ++placed;
  }
  for (int c = 0; c < cfg_.cells; ++c)
    if (used[static_cast<std::size_t>(c)]) {
      pos_.push_back(c);
      vel_.push_back(0);
    }
}

void NaschRoad::step() {
  const int n = vehicles();
  if (n == 0) {
    ++steps_;
    return;
  }
  std::vector<int> new_pos(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Gap to the car ahead (periodic road).
    const int ahead = pos_[static_cast<std::size_t>((i + 1) % n)];
    int gap = ahead - pos_[static_cast<std::size_t>(i)] - 1;
    if (gap < 0) gap += cfg_.cells;
    if (n == 1) gap = cfg_.cells - 1;

    int v = vel_[static_cast<std::size_t>(i)];
    v = std::min(v + 1, cfg_.v_max);           // 1. accelerate
    v = std::min(v, gap);                      // 2. brake to the gap
    if (v > 0 && rng_.bernoulli(cfg_.dawdle_p)) --v;  // 3. dawdle
    vel_[static_cast<std::size_t>(i)] = v;

    const int np = pos_[static_cast<std::size_t>(i)] + v;  // 4. move
    if (np >= cfg_.cells) ++detector_count_;  // crossed the wrap-around
    new_pos[static_cast<std::size_t>(i)] = np % cfg_.cells;
  }
  pos_ = std::move(new_pos);
  // Keep the (position, velocity) pairs sorted by position so "the car
  // ahead" stays index i+1 after wrap-arounds.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return pos_[static_cast<std::size_t>(a)] < pos_[static_cast<std::size_t>(b)];
  });
  std::vector<int> sp(static_cast<std::size_t>(n)), sv(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sp[static_cast<std::size_t>(i)] = pos_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
    sv[static_cast<std::size_t>(i)] = vel_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
  }
  pos_ = std::move(sp);
  vel_ = std::move(sv);
  ++steps_;
}

double NaschRoad::mean_speed() const {
  if (vel_.empty()) return 0.0;
  double s = 0.0;
  for (int v : vel_) s += v;
  return s / static_cast<double>(vel_.size());
}

double NaschRoad::flow() const {
  if (steps_ == 0) return 0.0;
  return static_cast<double>(detector_count_) / static_cast<double>(steps_);
}

std::vector<std::uint8_t> NaschRoad::occupancy() const {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(cfg_.cells), 0);
  for (std::size_t i = 0; i < pos_.size(); ++i)
    out[static_cast<std::size_t>(pos_[i])] =
        static_cast<std::uint8_t>(1 + vel_[i]);
  return out;
}

double nasch_flow(double density, int cells, int warmup, int measure,
                  std::uint64_t seed) {
  NaschConfig cfg;
  cfg.cells = cells;
  cfg.density = density;
  cfg.seed = seed;
  NaschRoad road(cfg);
  for (int s = 0; s < warmup; ++s) road.step();
  const double before = road.flow() * road.steps();
  for (int s = 0; s < measure; ++s) road.step();
  const double after = road.flow() * road.steps();
  return (after - before) / measure;
}

DistributedTrafficViz::DistributedTrafficViz(net::Host& sim_host,
                                             net::Host& viz_host,
                                             NaschConfig cfg, int steps,
                                             des::SimTime step_interval,
                                             std::uint16_t port)
    : sim_host_(sim_host), viz_id_(viz_host.id()), port_(port), road_(cfg),
      tx_(sim_host, static_cast<std::uint16_t>(port + 1)),
      rx_(viz_host, port), graph_(sim_host.scheduler()),
      source_(graph_,
              flow::PeriodicSource::Config{step_interval, steps,
                                           /*immediate_first=*/true},
              nullptr,
              [this]() {
                // Final accounting once the network drains (schedule far
                // enough out).
                auto& sched = sim_host_.scheduler();
                sched.schedule_after(
                    des::SimTime::milliseconds(50), [this, &sched]() {
                      result_.elapsed_s = (sched.now() - started_).sec();
                      result_.final_mean_speed = road_.mean_speed();
                      if (result_.elapsed_s > 0.0)
                        result_.frames_per_s =
                            static_cast<double>(result_.frames_delivered) /
                            result_.elapsed_s;
                    });
              }) {
  result_.frame_bytes = static_cast<std::uint64_t>(cfg.cells);
  rx_.on_receive([this](const net::IpPacket&) { ++result_.frames_delivered; });
  graph_.add_stage(flow::inline_stage(
      "simulate", [this](flow::StageContext, flow::Item&) {
        road_.step();
        ++result_.steps_simulated;
      }));
  // Ship the occupancy frame to the visualization site.
  graph_.add_stage(flow::datagram_transfer_stage(
      "publish", tx_, viz_id_, port_,
      [this](const flow::Item&) {
        return units::Bytes{result_.frame_bytes};
      }));
}

void DistributedTrafficViz::start() {
  started_ = sim_host_.scheduler().now();
  source_.start();
}

}  // namespace gtw::apps
