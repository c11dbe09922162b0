// Statistics collectors used throughout the simulator: streaming mean and
// variance (Welford) and time-weighted averages for queue occupancy style
// metrics.
#pragma once

#include <cstdint>

#include "des/time.hpp"

namespace gtw::des {

// Streaming mean / variance / min / max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Time-weighted average of a piecewise-constant signal (queue depth, link
// utilisation): each `update` records the value held since the previous one.
class TimeWeighted {
 public:
  void update(SimTime now, double new_value);
  double average(SimTime now) const;
  double current() const { return value_; }

 private:
  SimTime last_ = SimTime::zero();
  double value_ = 0.0;
  double weighted_sum_ = 0.0;
  bool started_ = false;
  SimTime start_ = SimTime::zero();
};

}  // namespace gtw::des
