#include "fire/motion.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "fire/filters.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"

namespace gtw::fire {

namespace {

// The voxels correct()'s loop reads from the warped image: the interior
// voxels whose reference value is not below `threshold` (the loop's own
// test, so a NaN counts) and their six face neighbours.  A voxel is read
// if it or one of its neighbours is such a voxel.
std::vector<RowSpan> read_set(const VolumeF& ref, float threshold) {
  const Dims d = ref.dims();
  const auto foreground = [&](int x, int y, int z) {
    return x >= 1 && x < d.nx - 1 && y >= 1 && y < d.ny - 1 && z >= 1 &&
           z < d.nz - 1 && !(ref.at(x, y, z) < threshold);
  };
  std::vector<RowSpan> spans;
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        if (!foreground(x, y, z) && !foreground(x - 1, y, z) &&
            !foreground(x + 1, y, z) && !foreground(x, y - 1, z) &&
            !foreground(x, y + 1, z) && !foreground(x, y, z - 1) &&
            !foreground(x, y, z + 1))
          continue;
        RowSpan* last = spans.empty() ? nullptr : &spans.back();
        if (last != nullptr && last->y == y && last->z == z && last->x1 == x)
          ++last->x1;
        else
          spans.push_back({y, z, x, x + 1});
      }
    }
  }
  return spans;
}

}  // namespace

MotionCorrector::MotionCorrector(VolumeF reference, MotionConfig cfg)
    : ref_(average_filter_3x3x3(reference)), cfg_(cfg) {
  float peak = 0.0f;
  for (std::size_t i = 0; i < ref_.size(); ++i) peak = std::max(peak, ref_[i]);
  mask_threshold_ = peak * static_cast<float>(cfg_.foreground_fraction);
  read_set_ = read_set(ref_, mask_threshold_);
}

MotionResult MotionCorrector::correct(const VolumeF& scan) const {
  if (!(scan.dims() == ref_.dims()))
    throw std::invalid_argument("MotionCorrector: dims mismatch");
  const Dims d = ref_.dims();
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0,
               cz = (d.nz - 1) / 2.0;

  MotionResult result;
  RigidTransform theta;

  const VolumeF smooth_scan = average_filter_3x3x3(scan);
  // Iteration 0 reads the smoothed scan itself; each later one reads its
  // warp by the current estimate, made at the read set only.
  VolumeF warped(d);
  const VolumeF* image = &smooth_scan;
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
        const float* warped_row = image->data().data() + row;
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
    result.iterations = iter + 1;
    // The loop ends here, so nothing would read this iteration's warp.
    if (step_max < cfg_.tolerance || iter + 1 == cfg_.max_iterations) break;
    resample_spans(smooth_scan, theta, read_set_, warped);
    image = &warped;
  }

  result.estimate = theta;
  // Apply the estimated transform to the *original* scan.
  result.corrected = theta.max_abs() > 0.0 ? resample(scan, theta) : scan;
  return result;
}

}  // namespace gtw::fire
