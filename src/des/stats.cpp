#include "des/stats.hpp"

#include <algorithm>
#include <cmath>

namespace gtw::des {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void TimeWeighted::update(SimTime now, double new_value) {
  if (!started_) {
    started_ = true;
    start_ = now;
  } else {
    weighted_sum_ += value_ * (now - last_).sec();
  }
  last_ = now;
  value_ = new_value;
}

double TimeWeighted::average(SimTime now) const {
  if (!started_) return 0.0;
  const double span = (now - start_).sec();
  if (span <= 0.0) return value_;
  const double sum = weighted_sum_ + value_ * (now - last_).sec();
  return sum / span;
}

}  // namespace gtw::des
