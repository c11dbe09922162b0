#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "des/random.hpp"
#include "fire/correlation.hpp"
#include "fire/detrend.hpp"
#include "fire/filters.hpp"
#include "fire/motion.hpp"
#include "fire/reference.hpp"
#include "fire/rigid.hpp"
#include "fire/rvo.hpp"
#include "fire/volume.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "scanner/phantom.hpp"

namespace gtw::fire {
namespace {

TEST(VolumeTest, IndexingRoundTrip) {
  VolumeF v(4, 3, 2);
  float k = 0;
  for (int z = 0; z < 2; ++z)
    for (int y = 0; y < 3; ++y)
      for (int x = 0; x < 4; ++x) v.at(x, y, z) = k++;
  EXPECT_EQ(v.size(), 24u);
  EXPECT_FLOAT_EQ(v.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(v.at(3, 2, 1), 23.0f);
  EXPECT_FLOAT_EQ(v[23], 23.0f);
}

TEST(VolumeTest, ClampedReadsEdge) {
  VolumeF v(2, 2, 2, 5.0f);
  v.at(0, 0, 0) = 1.0f;
  EXPECT_FLOAT_EQ(v.clamped(-3, -3, -3), 1.0f);
  EXPECT_FLOAT_EQ(v.clamped(9, 9, 9), 5.0f);
}

TEST(VolumeTest, TrilinearInterpolation) {
  VolumeF v(2, 2, 2);
  v.at(1, 0, 0) = 10.0f;
  // Midpoint between (0,0,0)=0 and (1,0,0)=10.
  EXPECT_NEAR(v.sample(0.5, 0.0, 0.0), 5.0, 1e-9);
  // At a lattice point, exact.
  EXPECT_NEAR(v.sample(1.0, 0.0, 0.0), 10.0, 1e-9);
}

TEST(MedianFilterTest, RemovesImpulseNoise) {
  VolumeF v(9, 9, 3, 100.0f);
  v.at(4, 4, 1) = 10000.0f;  // hot pixel
  const VolumeF out = median_filter_3x3(v);
  EXPECT_FLOAT_EQ(out.at(4, 4, 1), 100.0f);
}

TEST(MedianFilterTest, ConstantImageFixedPoint) {
  VolumeF v(8, 8, 2, 42.0f);
  const VolumeF out = median_filter_3x3(v);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_FLOAT_EQ(out[i], 42.0f);
}

TEST(AverageFilterTest, PreservesMeanOfConstant) {
  VolumeF v(6, 6, 6, 7.0f);
  const VolumeF out = average_filter_3x3x3(v);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_NEAR(out[i], 7.0f, 1e-5);
}

TEST(AverageFilterTest, SmoothsAStep) {
  VolumeF v(8, 4, 4, 0.0f);
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 4; ++y)
      for (int x = 4; x < 8; ++x) v.at(x, y, z) = 90.0f;
  const VolumeF out = average_filter_3x3x3(v);
  // On the boundary the value is between the two plateaus.
  EXPECT_GT(out.at(4, 2, 2), 10.0f);
  EXPECT_LT(out.at(4, 2, 2), 80.0f);
}

TEST(ReferenceTest, HrfKernelIsNormalisedAndPeaksNearDelay) {
  const auto h = hrf_kernel(HrfParams{6.0, 2.0}, 0.1);
  const double sum = std::accumulate(h.begin(), h.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  const auto peak = std::max_element(h.begin(), h.end());
  const double t_peak =
      (static_cast<double>(std::distance(h.begin(), peak)) + 0.5) * 0.1;
  EXPECT_NEAR(t_peak, 6.0, 1.0);
}

TEST(ReferenceTest, ReferenceIsZNormalised) {
  StimulusDesign stim{10, 10};
  const auto r = make_reference(stim, 100, 2.0, HrfParams{});
  double mean = std::accumulate(r.begin(), r.end(), 0.0) / 100.0;
  double var = 0;
  for (double x : r) var += (x - mean) * (x - mean);
  var /= 100.0;
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-9);
}

TEST(ReferenceTest, ReferenceLagsStimulus) {
  StimulusDesign stim{10, 10};
  const auto s = stim.series(60);
  const auto r = make_reference(stim, 60, 2.0, HrfParams{6.0, 2.0});
  // The hemodynamic delay shifts the response: correlation of the reference
  // with a lagged stimulus beats correlation with the instantaneous one.
  auto corr_at_lag = [&](int lag) {
    linalg::Vector a, b;
    for (int i = lag; i < 60; ++i) {
      a.push_back(s[static_cast<std::size_t>(i - lag)]);
      b.push_back(r[static_cast<std::size_t>(i)]);
    }
    return linalg::pearson(a, b);
  };
  EXPECT_GT(corr_at_lag(3), corr_at_lag(0));  // 3 scans x 2 s = 6 s lag
}

TEST(ZNormaliseTest, ZeroVarianceBecomesZeros) {
  std::vector<double> v{5.0, 5.0, 5.0};
  z_normalise(v);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(IncrementalCorrelationTest, DetectsPerfectlyCorrelatedVoxel) {
  const Dims d{4, 4, 2};
  IncrementalCorrelation corr(d);
  StimulusDesign stim{5, 5};
  const auto ref = make_reference(stim, 40, 2.0, HrfParams{});
  des::Rng rng(3);
  for (int t = 0; t < 40; ++t) {
    VolumeF img(d);
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] = static_cast<float>(rng.normal(100.0, 1.0));
    img.at(0, 0, 0) = static_cast<float>(
        100.0 + 10.0 * ref[static_cast<std::size_t>(t)]);  // driven voxel
    corr.add_scan(img, ref[static_cast<std::size_t>(t)]);
  }
  const VolumeF map = corr.correlation_map();
  EXPECT_GT(map.at(0, 0, 0), 0.99f);
  // A noise voxel stays low.
  EXPECT_LT(std::abs(map.at(3, 3, 1)), 0.5f);
}

TEST(IncrementalCorrelationTest, BoundedByOne) {
  const Dims d{2, 2, 1};
  IncrementalCorrelation corr(d);
  des::Rng rng(5);
  for (int t = 0; t < 30; ++t) {
    VolumeF img(d);
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] = static_cast<float>(rng.normal());
    corr.add_scan(img, rng.normal());
  }
  const VolumeF map = corr.correlation_map();
  for (std::size_t i = 0; i < map.size(); ++i) {
    EXPECT_LE(map[i], 1.0f);
    EXPECT_GE(map[i], -1.0f);
  }
}

TEST(IncrementalCorrelationTest, AffineInvariance) {
  // r is invariant to per-voxel affine rescaling of the signal.
  const Dims d{1, 1, 1};
  IncrementalCorrelation a(d), b(d);
  des::Rng rng(7);
  for (int t = 0; t < 25; ++t) {
    const double y = rng.normal();
    const double x = 0.8 * y + 0.2 * rng.normal();
    VolumeF va(d), vb(d);
    va[0] = static_cast<float>(x);
    vb[0] = static_cast<float>(5.0 * x + 300.0);
    a.add_scan(va, y);
    b.add_scan(vb, y);
  }
  EXPECT_NEAR(a.correlation_at(0), b.correlation_at(0), 1e-5);
}

TEST(DetrendTest, RemovesLinearDrift) {
  const Dims d{3, 3, 1};
  IncrementalDetrend det(d, DetrendConfig{1, 50});
  double last_residual = 1e9;
  for (int t = 0; t < 50; ++t) {
    VolumeF img(d);
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] = static_cast<float>(100.0 + 2.5 * t);  // pure drift
    const VolumeF out = det.add_scan(img);
    last_residual = out[0];
  }
  EXPECT_NEAR(last_residual, 0.0, 1e-3);
}

TEST(DetrendTest, RemovesCosineDrift) {
  const Dims d{2, 2, 1};
  IncrementalDetrend det(d, DetrendConfig{1, 64});
  double residual_sum = 0.0;
  for (int t = 0; t < 64; ++t) {
    VolumeF img(d);
    const double u = t / 63.0;
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] = static_cast<float>(50.0 + 8.0 * std::cos(M_PI * u));
    const VolumeF out = det.add_scan(img);
    if (t > 10) residual_sum += std::abs(out[0]);
  }
  EXPECT_LT(residual_sum / 53.0, 0.05);
}

TEST(DetrendTest, PreservesStimulusLockedSignalUnderDrift) {
  // Under a strong baseline drift, detrending must clearly improve the
  // correlation with the reference relative to the raw signal (causal
  // streaming detrending distorts the first cycles, so the comparison —
  // not perfection — is the invariant).
  const Dims d{1, 1, 1};
  StimulusDesign stim{8, 8};
  const auto ref = make_reference(stim, 96, 2.0, HrfParams{});
  IncrementalDetrend det(d, DetrendConfig{1, 96});
  IncrementalCorrelation corr_det(d), corr_raw(d);
  for (int t = 0; t < 96; ++t) {
    VolumeF img(d);
    img[0] = static_cast<float>(200.0 + 30.0 * t / 95.0 +
                                5.0 * ref[static_cast<std::size_t>(t)]);
    corr_raw.add_scan(img, ref[static_cast<std::size_t>(t)]);
    corr_det.add_scan(det.add_scan(img), ref[static_cast<std::size_t>(t)]);
  }
  EXPECT_GT(corr_det.correlation_at(0), 0.6);
  EXPECT_GT(corr_det.correlation_at(0), corr_raw.correlation_at(0) + 0.05);
}

TEST(RigidTest, IdentityTransformIsNoop) {
  const VolumeF v = scanner::make_head_phantom(Dims{16, 16, 8});
  const VolumeF out = resample(v, RigidTransform{});
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(out[i], v[i], 1e-4);
}

TEST(RigidTest, TranslationShiftsContent) {
  VolumeF v(8, 8, 4, 0.0f);
  v.at(4, 4, 2) = 100.0f;
  RigidTransform t;
  t.tx = 1.0;  // output voxel x reads source x+1
  const VolumeF out = resample(v, t);
  EXPECT_NEAR(out.at(3, 4, 2), 100.0f, 1e-3);
}

TEST(RigidTest, InverseApproxUndoesSmallMotion) {
  const VolumeF v = scanner::make_head_phantom(Dims{24, 24, 12});
  RigidTransform t{0.6, -0.4, 0.2, 0.01, -0.015, 0.02};
  // Geometric property: composing the transform with its first-order
  // inverse moves points by at most O(|theta|^2 * radius).
  const Dims d = v.dims();
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0,
               cz = (d.nz - 1) / 2.0;
  const RigidTransform inv = t.inverse_approx();
  double worst = 0.0;
  for (int z = 0; z < d.nz; z += 3) {
    for (int y = 0; y < d.ny; y += 4) {
      for (int x = 0; x < d.nx; x += 4) {
        double mx, my, mz, bx, by, bz;
        t.apply(cx, cy, cz, x, y, z, mx, my, mz);
        inv.apply(cx, cy, cz, mx, my, mz, bx, by, bz);
        const double err = std::sqrt((bx - x) * (bx - x) +
                                     (by - y) * (by - y) +
                                     (bz - z) * (bz - z));
        worst = std::max(worst, err);
      }
    }
  }
  EXPECT_LT(worst, 0.05);  // ~ (0.02 rad)^2 * 17 voxel radius
}

TEST(MotionTest, RecoversInjectedTranslation) {
  const VolumeF ref = scanner::make_head_phantom(Dims{32, 32, 12});
  RigidTransform injected;
  injected.tx = 0.8;
  injected.ty = -0.5;
  const VolumeF moved = resample(ref, injected);

  MotionCorrector mc(ref);
  const MotionResult res = mc.correct(moved);
  // The estimate aligns `moved` back to `ref`, i.e. ~ inverse of injected.
  EXPECT_NEAR(res.estimate.tx, -0.8, 0.1);
  EXPECT_NEAR(res.estimate.ty, 0.5, 0.1);
  EXPECT_LT(res.final_rmse, res.initial_rmse * 0.3);
}

TEST(MotionTest, RecoversInjectedRotation) {
  const VolumeF ref = scanner::make_head_phantom(Dims{32, 32, 12});
  RigidTransform injected;
  injected.rz = 0.03;  // ~1.7 degrees
  const VolumeF moved = resample(ref, injected);
  MotionCorrector mc(ref);
  const MotionResult res = mc.correct(moved);
  EXPECT_NEAR(res.estimate.rz, -0.03, 0.01);
  EXPECT_LT(std::abs(res.estimate.tx), 0.2);
}

TEST(MotionTest, ScanOfOtherDimsThrows) {
  const MotionCorrector mc(scanner::make_head_phantom(Dims{24, 24, 8}));
  EXPECT_THROW(mc.correct(scanner::make_head_phantom(Dims{12, 12, 4})),
               std::invalid_argument);
  EXPECT_THROW(mc.correct(VolumeF(Dims{24, 24, 9})), std::invalid_argument);
}

TEST(MotionTest, IdentityInputYieldsNearZeroEstimate) {
  const VolumeF ref = scanner::make_head_phantom(Dims{24, 24, 8});
  MotionCorrector mc(ref);
  const MotionResult res = mc.correct(ref);
  EXPECT_LT(res.estimate.max_abs(), 1e-3);
}

TEST(RvoTest, RecoversGroundTruthDelay) {
  // One voxel driven by an HRF with delay 7.5 s; RVO's raster must pick a
  // delay near it and beat the default-delay correlation.
  const Dims d{4, 4, 1};
  StimulusDesign stim{8, 8};
  const double tr = 2.0;
  const HrfParams truth{7.5, 2.0};
  const auto resp = make_reference(stim, 64, tr, truth);

  std::vector<VolumeF> series;
  des::Rng rng(11);
  for (int t = 0; t < 64; ++t) {
    VolumeF img(d, 100.0f);
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] += static_cast<float>(rng.normal(0.0, 0.3));
    img.at(1, 1, 0) = static_cast<float>(
        100.0 + 5.0 * resp[static_cast<std::size_t>(t)]);
    series.push_back(img);
  }

  RvoConfig cfg;
  cfg.delay_steps = 13;
  cfg.disp_steps = 7;
  RvoAnalyzer rvo(d, stim, tr, cfg);
  const RvoResult res = rvo.analyze(series);
  const std::size_t idx = 1 * 4 + 1;
  EXPECT_GT(res.fits[idx].best_correlation, 0.95f);
  EXPECT_NEAR(res.fits[idx].delay_s, 7.5, 1.0);
}

TEST(RvoTest, CoarseRefineFindsSameOptimumWithFewerEvaluations) {
  const Dims d{4, 4, 1};
  StimulusDesign stim{8, 8};
  const double tr = 2.0;
  const auto resp = make_reference(stim, 48, tr, HrfParams{5.0, 1.5});
  std::vector<VolumeF> series;
  for (int t = 0; t < 48; ++t) {
    VolumeF img(d, 100.0f);
    img.at(2, 2, 0) = static_cast<float>(
        100.0 + 4.0 * resp[static_cast<std::size_t>(t)]);
    series.push_back(img);
  }

  RvoConfig full;
  full.delay_steps = 12;
  full.disp_steps = 12;
  RvoConfig coarse = full;
  coarse.mode = RvoMode::kCoarseRefine;

  const RvoResult rf = RvoAnalyzer(d, stim, tr, full).analyze(series);
  const RvoResult rc = RvoAnalyzer(d, stim, tr, coarse).analyze(series);
  const std::size_t idx = 2 * 4 + 2;
  EXPECT_LT(rc.reference_evaluations, rf.reference_evaluations);
  EXPECT_NEAR(rc.fits[idx].best_correlation, rf.fits[idx].best_correlation,
              0.02);
  EXPECT_NEAR(rc.fits[idx].delay_s, rf.fits[idx].delay_s, 1.0);
}

TEST(RvoTest, MasksAirVoxels) {
  const Dims d{4, 4, 1};
  StimulusDesign stim{5, 5};
  std::vector<VolumeF> series;
  for (int t = 0; t < 20; ++t) {
    VolumeF img(d, 0.0f);     // everything air...
    img.at(0, 0, 0) = 500.0f; // ...except one bright voxel
    series.push_back(img);
  }
  const RvoResult res = RvoAnalyzer(d, stim, 2.0, RvoConfig{}).analyze(series);
  // Air voxels were skipped entirely.
  EXPECT_EQ(res.fits[5].best_correlation, 0.0f);
  EXPECT_LT(res.reference_evaluations, 120u);  // ~1 voxel x grid
}

TEST(VolumeTest, FarCoordinateReadsTheNearEdge) {
  VolumeF v(4, 1, 1);
  for (int x = 0; x < 4; ++x) v.at(x, 0, 0) = static_cast<float>(x + 1);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(v.sample(1e12, 0.0, 0.0), 4.0);
  EXPECT_EQ(v.sample(-1e12, 0.0, 0.0), 1.0);
  EXPECT_EQ(v.sample(inf, 0.0, 0.0), 4.0);
  EXPECT_EQ(v.sample(-inf, 0.0, 0.0), 1.0);
  EXPECT_EQ(v.sample(2.0, 1e12, -1e12), 3.0);
  RigidTransform far;
  far.tx = 1e12;  // every output voxel reads far right of the volume
  const VolumeF out = resample(v, far);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 4.0f);
}

TEST(VolumeTest, NanCoordinateGivesNan) {
  VolumeF v(4, 3, 2, 7.0f);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(v.sample(nan, 1.0, 1.0)));
  EXPECT_TRUE(std::isnan(v.sample(1.0, nan, 1.0)));
  EXPECT_TRUE(std::isnan(v.sample(1.0, 1.0, nan)));
  RigidTransform t;
  t.rz = nan;
  const VolumeF out = resample(v, t);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_TRUE(std::isnan(out[i]));
}

// --- exactness of the per-voxel kernels --------------------------------------
//
// The kernels read interior voxels straight from memory, evaluate the
// rotation's trig once per volume, warp a row's interior points through
// the direct eight-corner sum, sum the average's voxels in blocks, select
// the median with a network and keep the normal equations in locals.
// Each must still give, bit for bit, what the plain formulation below
// gives: trig per point, edge-clamped reads, one voxel at a time,
// std::nth_element, and J^T J accumulated through linalg::Matrix.

namespace plain {

double sample(const VolumeF& v, double x, double y, double z) {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const int z0 = static_cast<int>(std::floor(z));
  const double fx = x - x0, fy = y - y0, fz = z - z0;
  double acc = 0.0;
  for (int dz = 0; dz <= 1; ++dz) {
    const double wz = dz != 0 ? fz : 1.0 - fz;
    if (wz == 0.0) continue;
    for (int dy = 0; dy <= 1; ++dy) {
      const double wy = dy != 0 ? fy : 1.0 - fy;
      if (wy == 0.0) continue;
      for (int dx = 0; dx <= 1; ++dx) {
        const double wx = dx != 0 ? fx : 1.0 - fx;
        if (wx == 0.0) continue;
        acc += wx * wy * wz *
               static_cast<double>(v.clamped(x0 + dx, y0 + dy, z0 + dz));
      }
    }
  }
  return acc;
}

void apply(const RigidTransform& t, double cx, double cy, double cz, double x,
           double y, double z, double& ox, double& oy, double& oz) {
  double px = x - cx, py = y - cy, pz = z - cz;
  {
    const double c = std::cos(t.rx), s = std::sin(t.rx);
    const double ny = c * py - s * pz, nz = s * py + c * pz;
    py = ny;
    pz = nz;
  }
  {
    const double c = std::cos(t.ry), s = std::sin(t.ry);
    const double nx = c * px + s * pz, nz = -s * px + c * pz;
    px = nx;
    pz = nz;
  }
  {
    const double c = std::cos(t.rz), s = std::sin(t.rz);
    const double nx = c * px - s * py, ny = s * px + c * py;
    px = nx;
    py = ny;
  }
  ox = px + cx + t.tx;
  oy = py + cy + t.ty;
  oz = pz + cz + t.tz;
}

VolumeF resample(const VolumeF& src, const RigidTransform& t) {
  const Dims d = src.dims();
  VolumeF out(d);
  const double cx = (d.nx - 1) / 2.0;
  const double cy = (d.ny - 1) / 2.0;
  const double cz = (d.nz - 1) / 2.0;
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        double sx = 0, sy = 0, sz = 0;
        plain::apply(t, cx, cy, cz, x, y, z, sx, sy, sz);
        out.at(x, y, z) = static_cast<float>(plain::sample(src, sx, sy, sz));
      }
    }
  }
  return out;
}

VolumeF median_filter_3x3(const VolumeF& in) {
  const Dims d = in.dims();
  VolumeF out(d);
  std::array<float, 9> window{};
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        std::size_t n = 0;
        for (int dy = -1; dy <= 1; ++dy)
          for (int dx = -1; dx <= 1; ++dx)
            window[n++] = in.clamped(x + dx, y + dy, z);
        std::nth_element(window.begin(), window.begin() + 4, window.end());
        out.at(x, y, z) = window[4];
      }
    }
  }
  return out;
}

VolumeF average_filter_3x3x3(const VolumeF& in) {
  const Dims d = in.dims();
  VolumeF out(d);
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        double acc = 0.0;
        for (int dz = -1; dz <= 1; ++dz)
          for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx)
              acc += in.clamped(x + dx, y + dy, z + dz);
        out.at(x, y, z) = static_cast<float>(acc / 27.0);
      }
    }
  }
  return out;
}

// MotionCorrector(reference, cfg).correct(scan), Gauss-Newton loop included.
MotionResult correct(const VolumeF& reference, const VolumeF& scan,
                     const MotionConfig& cfg) {
  const VolumeF ref = plain::average_filter_3x3x3(reference);
  float peak = 0.0f;
  for (std::size_t i = 0; i < ref.size(); ++i) peak = std::max(peak, ref[i]);
  const float mask_threshold = peak * static_cast<float>(cfg.foreground_fraction);

  const Dims d = ref.dims();
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0,
               cz = (d.nz - 1) / 2.0;
  MotionResult result;
  RigidTransform theta;
  const VolumeF smooth_scan = plain::average_filter_3x3x3(scan);
  VolumeF warped = smooth_scan;
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    linalg::Matrix jtj(6, 6);
    linalg::Vector jtr(6, 0.0);
    double sse = 0.0;
    std::size_t count = 0;
    for (int z = 1; z < d.nz - 1; ++z) {
      for (int y = 1; y < d.ny - 1; ++y) {
        for (int x = 1; x < d.nx - 1; ++x) {
          const float rv = ref.at(x, y, z);
          if (rv < mask_threshold) continue;
          const double r = warped.at(x, y, z) - rv;
          const double gx =
              0.5 * (warped.at(x + 1, y, z) - warped.at(x - 1, y, z));
          const double gy =
              0.5 * (warped.at(x, y + 1, z) - warped.at(x, y - 1, z));
          const double gz =
              0.5 * (warped.at(x, y, z + 1) - warped.at(x, y, z - 1));
          const double px = x - cx, py = y - cy, pz = z - cz;
          const std::array<double, 6> jrow = {
              gx, gy, gz, gy * (-pz) + gz * py, gx * pz + gz * (-px),
              gx * (-py) + gy * px,
          };
          for (std::size_t a = 0; a < 6; ++a) {
            jtr[a] += jrow[a] * r;
            for (std::size_t b = a; b < 6; ++b) jtj(a, b) += jrow[a] * jrow[b];
          }
          sse += r * r;
          ++count;
        }
      }
    }
    if (count == 0) break;
    for (std::size_t a = 0; a < 6; ++a)
      for (std::size_t b = 0; b < a; ++b) jtj(a, b) = jtj(b, a);
    for (std::size_t a = 0; a < 6; ++a) jtj(a, a) *= 1.001;

    const double rmse = std::sqrt(sse / static_cast<double>(count));
    if (iter == 0) result.initial_rmse = rmse;
    result.final_rmse = rmse;
    result.iterations = iter;

    linalg::Vector delta;
    try {
      delta = linalg::solve_spd(jtj, jtr);
    } catch (const std::exception&) {
      break;
    }
    auto arr = theta.as_array();
    double step_max = 0.0;
    for (std::size_t a = 0; a < 6; ++a) {
      arr[a] -= delta[a];
      step_max = std::max(step_max, std::abs(delta[a]));
    }
    theta = RigidTransform::from_array(arr);
    warped = plain::resample(smooth_scan, theta);
    result.iterations = iter + 1;
    if (step_max < cfg.tolerance) break;
  }
  result.estimate = theta;
  result.corrected =
      theta.max_abs() > 0.0 ? plain::resample(scan, theta) : scan;
  return result;
}

}  // namespace plain

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Index of the first voxel whose bit pattern differs, or size() if none.
std::size_t first_difference(const VolumeF& a, const VolumeF& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return i;
  return a.size();
}

void expect_same_voxels(const VolumeF& got, const VolumeF& want) {
  ASSERT_EQ(got.size(), want.size());
  const std::size_t i = first_difference(got, want);
  EXPECT_EQ(i, got.size()) << "voxel " << i << " is " << got[i]
                           << ", expected " << want[i];
}

// The widths 9 to 18 put one or two of the average filter's 8-voxel blocks
// in a row, with none, some or all of its interior voxels left over.
const std::vector<Dims> kExactnessDims = {
    {1, 1, 1},  {2, 3, 1},  {3, 3, 3},  {5, 4, 3},  {9, 3, 2},
    {10, 2, 3}, {11, 3, 3}, {17, 4, 2}, {18, 3, 3}, {64, 64, 16}};

// Seeded values of both signs.
VolumeF random_volume(Dims d, std::uint64_t seed) {
  des::Rng rng(seed);
  VolumeF v(d);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<float>(rng.normal(0.0, 100.0));
  return v;
}

// Translations up to 3 voxels and rotations up to 0.2 rad, so that many
// samples land outside the volume and take the clamped border reads; the
// fixed ones put samples exactly on lattice planes, where weights are zero.
std::vector<RigidTransform> exactness_transforms(std::uint64_t seed) {
  std::vector<RigidTransform> ts = {
      RigidTransform{},
      RigidTransform{1.0, -2.0, 1.0, 0.0, 0.0, 0.0},
      RigidTransform{0.5, 0.0, 0.0, 0.0, 0.0, 0.15},
  };
  des::Rng rng(seed);
  for (int i = 0; i < 6; ++i)
    ts.push_back({rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                  rng.uniform(-3.0, 3.0), rng.uniform(-0.2, 0.2),
                  rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)});
  return ts;
}

// Seeded infinite, NaN, signed-zero and finite voxels.  sample() sums the
// corners of zero weight that the plain sum skips, and must still give its
// bits on these voxels.
VolumeF non_finite_volume(Dims d, std::uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {inf,  -inf, std::numeric_limits<float>::quiet_NaN(),
                          0.0f, -0.0f, 3.5f, -250.0f};
  des::Rng rng(seed);
  VolumeF v(d);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = values[rng.uniform_int(std::size(values))];
  return v;
}

TEST(KernelExactnessTest, SampleMatchesPlainFormulation) {
  des::Rng rng(41);
  for (const Dims& d : kExactnessDims) {
    SCOPED_TRACE(::testing::Message() << d.nx << "x" << d.ny << "x" << d.nz);
    for (const VolumeF& v : {random_volume(d, 100 + d.voxels()),
                             non_finite_volume(d, 150 + d.voxels())}) {
      for (int i = 0; i < 2000; ++i) {
        // Half the points within three voxels of the volume, a quarter on
        // lattice planes, a quarter far out (but below 2^30).
        double p[3] = {};
        const int n[3] = {d.nx, d.ny, d.nz};
        for (int k = 0; k < 3; ++k) {
          const double u = rng.uniform(-3.0, n[k] + 2.0);
          p[k] = i % 4 == 1 ? std::floor(u)
                 : i % 4 == 3 ? rng.uniform(-1e9, 1e9)
                              : u;
        }
        EXPECT_EQ(bits(v.sample(p[0], p[1], p[2])),
                  bits(plain::sample(v, p[0], p[1], p[2])))
            << "at (" << p[0] << ", " << p[1] << ", " << p[2] << ")";
      }
    }
  }
}

TEST(KernelExactnessTest, ApplyMatchesPlainFormulation) {
  des::Rng rng(43);
  for (const RigidTransform& t : exactness_transforms(44)) {
    for (int i = 0; i < 200; ++i) {
      const double x = rng.uniform(-5.0, 70.0), y = rng.uniform(-5.0, 70.0),
                   z = rng.uniform(-5.0, 20.0);
      double ox = 0, oy = 0, oz = 0, px = 0, py = 0, pz = 0;
      t.apply(31.5, 31.5, 7.5, x, y, z, ox, oy, oz);
      plain::apply(t, 31.5, 31.5, 7.5, x, y, z, px, py, pz);
      EXPECT_EQ(bits(ox), bits(px));
      EXPECT_EQ(bits(oy), bits(py));
      EXPECT_EQ(bits(oz), bits(pz));
    }
  }
}

TEST(KernelExactnessTest, ResampleMatchesPlainFormulation) {
  for (const Dims& d : kExactnessDims) {
    // Seeded spans for resample_spans: rows whole, in pieces, or left out.
    des::Rng rng(d.voxels());
    std::vector<RowSpan> spans;
    for (int z = 0; z < d.nz; ++z)
      for (int y = 0; y < d.ny; ++y)
        for (int x = 0; x < d.nx;) {
          const int len = 1 + static_cast<int>(rng.uniform_int(
                                  static_cast<std::uint64_t>(d.nx - x)));
          if (rng.bernoulli(0.6)) spans.push_back({y, z, x, x + len});
          x += len;
        }
    // On the non-finite volume, interior points with a zero weight on an
    // infinite or NaN corner give a NaN direct sum, which must be summed
    // again as sample() does.
    for (const VolumeF& v : {random_volume(d, 200 + d.voxels()),
                             non_finite_volume(d, 250 + d.voxels())}) {
      for (const RigidTransform& t : exactness_transforms(d.voxels())) {
        SCOPED_TRACE(::testing::Message()
                     << d.nx << "x" << d.ny << "x" << d.nz << " t=(" << t.tx
                     << ", " << t.ty << ", " << t.tz << ", " << t.rx << ", "
                     << t.ry << ", " << t.rz << ")");
        const VolumeF want = plain::resample(v, t);
        expect_same_voxels(resample(v, t), want);
        // The span voxels get resample's bits; every other keeps its value.
        VolumeF got(d, 12345.0f), expect(d, 12345.0f);
        resample_spans(v, t, spans, got);
        for (const RowSpan& s : spans)
          for (int x = s.x0; x < s.x1; ++x)
            expect.at(x, s.y, s.z) = want.at(x, s.y, s.z);
        expect_same_voxels(got, expect);
      }
    }
  }
}

TEST(KernelExactnessTest, FiltersMatchPlainFormulation) {
  for (const Dims& d : kExactnessDims) {
    SCOPED_TRACE(::testing::Message() << d.nx << "x" << d.ny << "x" << d.nz);
    const VolumeF v = random_volume(d, 300 + d.voxels());
    expect_same_voxels(median_filter_3x3(v), plain::median_filter_3x3(v));
    expect_same_voxels(average_filter_3x3x3(v), plain::average_filter_3x3x3(v));
    // Infinities of both signs make NaN sums, whose bits the average must
    // keep too.  (A NaN has no place in an order, so the median network and
    // std::nth_element may pick different medians of a window holding one.)
    const VolumeF w = non_finite_volume(d, 350 + d.voxels());
    expect_same_voxels(average_filter_3x3x3(w), plain::average_filter_3x3x3(w));
  }
}

TEST(KernelExactnessTest, MedianNetworkSelectsTheMedianOfEveryZeroOneWindow) {
  // A comparator network selects the median of every input if it does so
  // for every input of zeros and ones (the 0-1 principle).  The centre of a
  // 3x3 slice sees the whole slice as its window.
  for (unsigned m = 0; m < 512; ++m) {
    VolumeF w(3, 3, 1);
    int ones = 0;
    for (std::size_t i = 0; i < 9; ++i) {
      const bool one = ((m >> i) & 1u) != 0;
      w[i] = one ? 1.0f : 0.0f;
      ones += one ? 1 : 0;
    }
    EXPECT_EQ(median_filter_3x3(w).at(1, 1, 0), ones >= 5 ? 1.0f : 0.0f)
        << "window bits " << m;
  }
}

void expect_same_correction(const MotionResult& got, const MotionResult& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  const auto ge = got.estimate.as_array(), we = want.estimate.as_array();
  for (std::size_t k = 0; k < 6; ++k) EXPECT_EQ(bits(ge[k]), bits(we[k]));
  EXPECT_EQ(bits(got.initial_rmse), bits(want.initial_rmse));
  EXPECT_EQ(bits(got.final_rmse), bits(want.final_rmse));
  expect_same_voxels(got.corrected, want.corrected);
}

TEST(KernelExactnessTest, MotionCorrectorMatchesPlainGaussNewton) {
  // A seeded 64x64x16 phantom session with head motion, median filtered as
  // in the pipeline; the first scan is the alignment reference.
  scanner::FmriConfig scfg;
  scfg.expected_scans = 8;
  scfg.regions = {{44.0, 30.0, 8.0, 3.0, 0.05}};
  scfg.motion.drift_per_scan = 0.05;
  scfg.motion.jitter = 0.3;
  scfg.motion.rot_jitter = 0.01;
  scfg.seed = 77;
  scanner::FmriSeriesGenerator gen(scfg);
  std::vector<VolumeF> scans;
  for (int t = 0; t < 4; ++t) scans.push_back(median_filter_3x3(gen.acquire(t)));

  {
    const MotionConfig cfg;
    const MotionCorrector mc(scans[0], cfg);
    for (std::size_t t = 1; t < scans.size(); ++t) {
      SCOPED_TRACE(::testing::Message() << "scan " << t);
      const MotionResult want = plain::correct(scans[0], scans[t], cfg);
      EXPECT_GT(want.iterations, 1);
      expect_same_correction(mc.correct(scans[t]), want);
    }
  }

  // The iteration cap, not the tolerance, ends the loop.
  {
    MotionConfig cfg;
    cfg.max_iterations = 2;
    const MotionCorrector mc(scans[0], cfg);
    for (std::size_t t = 1; t < scans.size(); ++t) {
      SCOPED_TRACE(::testing::Message() << "max_iterations=2, scan " << t);
      const MotionResult want = plain::correct(scans[0], scans[t], cfg);
      EXPECT_EQ(want.iterations, 2);
      expect_same_correction(mc.correct(scans[t]), want);
    }
  }

  // No reference voxel reaches the threshold (the peak of an all-negative
  // volume is 0): no iteration runs and the scan comes back as it is.
  {
    const MotionConfig cfg;
    const MotionCorrector mc(VolumeF(scans[0].dims(), -1.0f), cfg);
    const MotionResult got = mc.correct(scans[1]);
    EXPECT_EQ(got.iterations, 0);
    expect_same_correction(
        got, plain::correct(VolumeF(scans[0].dims(), -1.0f), scans[1], cfg));
    expect_same_voxels(got.corrected, scans[1]);
  }

  // On 5x4x3 every interior voxel is foreground, and the voxels the loop
  // reads reach all six faces of the volume.
  {
    const Dims d{5, 4, 3};
    VolumeF ref(d);
    for (int z = 0; z < d.nz; ++z)
      for (int y = 0; y < d.ny; ++y)
        for (int x = 0; x < d.nx; ++x)
          ref.at(x, y, z) = static_cast<float>(
              500.0 + 90.0 * std::sin(1.3 * x) + 60.0 * std::cos(0.9 * y) +
              40.0 * z * z);
    const MotionConfig cfg;
    const MotionCorrector mc(ref, cfg);
    for (const RigidTransform& t : exactness_transforms(7)) {
      if (t.max_abs() > 1.5) continue;  // keep the tiny fit in range
      SCOPED_TRACE(::testing::Message()
                   << "5x4x3, t=(" << t.tx << ", " << t.ty << ", " << t.tz
                   << ", " << t.rx << ", " << t.ry << ", " << t.rz << ")");
      const VolumeF scan = resample(ref, t);
      expect_same_correction(mc.correct(scan), plain::correct(ref, scan, cfg));
    }
  }
}

}  // namespace
}  // namespace gtw::fire
