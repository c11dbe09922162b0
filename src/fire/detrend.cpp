#include "fire/detrend.hpp"

#include <cmath>

#include "linalg/solve.hpp"

namespace gtw::fire {

IncrementalDetrend::IncrementalDetrend(Dims dims, DetrendConfig cfg)
    : dims_(dims), cfg_(cfg),
      k_(cfg.poly_order + 2),  // polynomial terms and the half-cosine
      gram_(static_cast<std::size_t>(k_), static_cast<std::size_t>(k_)),
      bt_(static_cast<std::size_t>(k_),
          std::vector<double>(dims.voxels(), 0.0)) {}

double IncrementalDetrend::basis(int j, int t) const {
  const double u =
      static_cast<double>(t) / std::max(1, cfg_.expected_scans - 1);
  if (j <= cfg_.poly_order) {
    double v = 1.0;
    for (int p = 0; p < j; ++p) v *= u;
    return v;
  }
  return std::cos(M_PI * u);  // slow half-cosine drift
}

VolumeF IncrementalDetrend::add_scan(const VolumeF& image) {
  const int t = t_++;
  std::vector<double> row(static_cast<std::size_t>(k_));
  for (int j = 0; j < k_; ++j) row[static_cast<std::size_t>(j)] = basis(j, t);

  // Update the shared Gram matrix.
  for (int a = 0; a < k_; ++a)
    for (int b = 0; b < k_; ++b)
      gram_(static_cast<std::size_t>(a), static_cast<std::size_t>(b)) +=
          row[static_cast<std::size_t>(a)] * row[static_cast<std::size_t>(b)];

  // Update per-voxel projections.
  const std::size_t n = dims_.voxels();
  for (int j = 0; j < k_; ++j) {
    const double bj = row[static_cast<std::size_t>(j)];
    std::vector<double>& acc = bt_[static_cast<std::size_t>(j)];
    for (std::size_t i = 0; i < n; ++i)
      acc[i] += bj * static_cast<double>(image[i]);
  }

  VolumeF out(dims_);
  // Warm-up: over a short prefix the scaled basis functions are nearly
  // collinear (the slow cosine looks constant), so the full fit is wildly
  // ill-conditioned.  Until enough scans are in, detrend with the running
  // mean only (constant term), which is always well conditioned.
  if (t + 1 < std::max(4 * k_, 8)) {
    const std::vector<double>& mean_acc = bt_[0];  // basis 0 is constant 1
    const std::size_t n0 = dims_.voxels();
    for (std::size_t i = 0; i < n0; ++i)
      out[i] = static_cast<float>(static_cast<double>(image[i]) -
                                  mean_acc[i] / (t + 1));
    return out;
  }

  // Regularised solve shared across voxels: factor G once per scan.  The
  // ridge scales with the Gram trace so conditioning is size-independent.
  linalg::Matrix g = gram_;
  double trace = 0.0;
  for (int a = 0; a < k_; ++a)
    trace += g(static_cast<std::size_t>(a), static_cast<std::size_t>(a));
  for (int a = 0; a < k_; ++a)
    g(static_cast<std::size_t>(a), static_cast<std::size_t>(a)) +=
        1e-8 * trace / k_;

  // coefficients c_i = G^{-1} b_i; we need B_t . c_i per voxel.  Solve for
  // the k "influence" weights w = G^{-1} B_t once, then B_t.c_i = w.b_i.
  linalg::Vector w = linalg::solve_spd(g, row);
  for (std::size_t i = 0; i < n; ++i) {
    double fitted = 0.0;
    for (int j = 0; j < k_; ++j)
      fitted += w[static_cast<std::size_t>(j)] * bt_[static_cast<std::size_t>(j)][i];
    out[i] = static_cast<float>(static_cast<double>(image[i]) - fitted);
  }
  return out;
}

}  // namespace gtw::fire
