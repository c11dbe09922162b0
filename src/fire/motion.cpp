#include "fire/motion.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "fire/filters.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"

namespace gtw::fire {

MotionCorrector::MotionCorrector(VolumeF reference, MotionConfig cfg)
    : ref_(cfg.presmooth ? average_filter_3x3x3(reference)
                         : std::move(reference)),
      cfg_(cfg) {
  float peak = 0.0f;
  for (std::size_t i = 0; i < ref_.size(); ++i) peak = std::max(peak, ref_[i]);
  mask_threshold_ = peak * static_cast<float>(cfg_.foreground_fraction);
}

MotionResult MotionCorrector::correct(const VolumeF& scan) const {
  const Dims d = ref_.dims();
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0,
               cz = (d.nz - 1) / 2.0;

  MotionResult result;
  RigidTransform theta;

  const VolumeF smooth_scan =
      cfg_.presmooth ? average_filter_3x3x3(scan) : scan;
  VolumeF warped = smooth_scan;
  const std::ptrdiff_t sy = d.nx, sz = sy * d.ny;  // voxel strides
  for (int iter = 0; iter < cfg_.max_iterations; ++iter) {
    // J^T J (upper triangle) and J^T r accumulated over foreground voxels.
    double jtj_acc[6][6] = {};
    double jtr_acc[6] = {};
    double sse = 0.0;
    std::size_t count = 0;

    for (int z = 1; z < d.nz - 1; ++z) {
      for (int y = 1; y < d.ny - 1; ++y) {
        const std::ptrdiff_t row = z * sz + y * sy;
        const float* ref_row = ref_.data().data() + row;
        const float* warped_row = warped.data().data() + row;
        for (int x = 1; x < d.nx - 1; ++x) {
          const float rv = ref_row[x];
          if (rv < mask_threshold_) continue;
          const float* w = warped_row + x;
          const double r = w[0] - rv;
          // Central-difference gradient of the warped image.
          const double gx = 0.5 * (w[1] - w[-1]);
          const double gy = 0.5 * (w[sy] - w[-sy]);
          const double gz = 0.5 * (w[sz] - w[-sz]);
          const double px = x - cx, py = y - cy, pz = z - cz;
          // d(position)/d(theta_j) for [tx ty tz rx ry rz].
          const double jrow[6] = {
              gx,
              gy,
              gz,
              gy * (-pz) + gz * py,
              gx * pz + gz * (-px),
              gx * (-py) + gy * px,
          };
          // Fully unrolled, the 27 sums are scalars rather than memory.
#pragma GCC unroll 6
          for (std::size_t a = 0; a < 6; ++a) {
            jtr_acc[a] += jrow[a] * r;
#pragma GCC unroll 6
            for (std::size_t b = a; b < 6; ++b)
              jtj_acc[a][b] += jrow[a] * jrow[b];
          }
          sse += r * r;
          ++count;
        }
      }
    }
    if (count == 0) break;
    linalg::Matrix jtj(6, 6);
    linalg::Vector jtr(jtr_acc, jtr_acc + 6);
    for (std::size_t a = 0; a < 6; ++a)
      for (std::size_t b = 0; b < 6; ++b)
        jtj(a, b) = b < a ? jtj_acc[b][a] : jtj_acc[a][b];
    // Levenberg damping keeps the step sane when gradients are weak.
    for (std::size_t a = 0; a < 6; ++a) jtj(a, a) *= 1.001;

    const double rmse = std::sqrt(sse / static_cast<double>(count));
    if (iter == 0) result.initial_rmse = rmse;
    result.final_rmse = rmse;
    result.iterations = iter;

    linalg::Vector delta;
    try {
      delta = linalg::solve_spd(jtj, jtr);
    } catch (const std::exception&) {
      break;  // degenerate system (e.g. uniform image): keep current estimate
    }

    // Gauss-Newton step (residual = warped - ref, so subtract).
    auto arr = theta.as_array();
    double step_max = 0.0;
    for (int a = 0; a < 6; ++a) {
      arr[static_cast<std::size_t>(a)] -= delta[static_cast<std::size_t>(a)];
      step_max = std::max(step_max, std::abs(delta[static_cast<std::size_t>(a)]));
    }
    theta = RigidTransform::from_array(arr);
    warped = resample(smooth_scan, theta);
    result.iterations = iter + 1;
    if (step_max < cfg_.tolerance) break;
  }

  result.estimate = theta;
  // Apply the estimated transform to the *original* scan.
  result.corrected =
      cfg_.presmooth && theta.max_abs() > 0.0 ? resample(scan, theta)
      : cfg_.presmooth                        ? scan
                                              : std::move(warped);
  return result;
}

}  // namespace gtw::fire
