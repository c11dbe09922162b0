#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "fire/analysis.hpp"
#include "scanner/phantom.hpp"

namespace gtw::scanner {
namespace {

TEST(PhantomTest, HeadHasAirBorderAndBrightBrain) {
  const fire::VolumeF v = make_head_phantom(fire::Dims{32, 32, 16});
  EXPECT_FLOAT_EQ(v.at(0, 0, 0), 0.0f);           // corner is air
  EXPECT_GT(v.at(10, 16, 8), 500.0f);             // lateral brain tissue
  EXPECT_LT(v.at(16, 15, 8), 300.0f);             // central ventricle (CSF)
}

TEST(PhantomTest, AnatomicalSharesGeometry) {
  const fire::Dims d{64, 64, 32};
  const fire::VolumeF epi = make_head_phantom(d);
  const fire::VolumeF anat = make_anatomical(d);
  int agree = 0, total = 0;
  for (std::size_t i = 0; i < epi.size(); i += 7) {
    ++total;
    if ((epi[i] > 0) == (anat[i] > 0)) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.99);
}

// The phantoms with every term evaluated per voxel.  make_head_phantom and
// make_anatomical compute each per-axis term once and must give the same
// bits.
namespace per_voxel {

double ellipse_r(const fire::Dims& d, double x, double y, double z, double ax,
                 double ay, double az) {
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0,
               cz = (d.nz - 1) / 2.0;
  const double ux = (x - cx) / (ax * d.nx / 2.0);
  const double uy = (y - cy) / (ay * d.ny / 2.0);
  const double uz = (z - cz) / (az * d.nz / 2.0);
  return std::sqrt(ux * ux + uy * uy + uz * uz);
}

fire::VolumeF head_phantom(fire::Dims dims) {
  fire::VolumeF v(dims);
  for (int z = 0; z < dims.nz; ++z) {
    for (int y = 0; y < dims.ny; ++y) {
      for (int x = 0; x < dims.nx; ++x) {
        const double r_head = ellipse_r(dims, x, y, z, 0.90, 0.95, 0.90);
        const double r_brain = ellipse_r(dims, x, y, z, 0.75, 0.80, 0.75);
        const double r_vent =
            ellipse_r(dims, x, y - dims.ny * 0.05, z, 0.18, 0.25, 0.30);
        double val = 0.0;
        if (r_head < 1.0) val = 350.0;
        if (r_brain < 1.0) {
          val = 700.0 +
                120.0 * std::sin(0.35 * x) * std::cos(0.3 * y) *
                    std::cos(0.5 * z) +
                80.0 * (1.0 - r_brain);
        }
        if (r_vent < 1.0) val = 180.0;
        v.at(x, y, z) = static_cast<float>(val);
      }
    }
  }
  return v;
}

fire::VolumeF anatomical(fire::Dims dims) {
  fire::VolumeF v(dims);
  for (int z = 0; z < dims.nz; ++z) {
    for (int y = 0; y < dims.ny; ++y) {
      for (int x = 0; x < dims.nx; ++x) {
        const double r_head = ellipse_r(dims, x, y, z, 0.90, 0.95, 0.90);
        const double r_brain = ellipse_r(dims, x, y, z, 0.75, 0.80, 0.75);
        const double r_vent =
            ellipse_r(dims, x, y - dims.ny * 0.05, z, 0.18, 0.25, 0.30);
        double val = 0.0;
        if (r_head < 1.0) val = 600.0;
        if (r_brain < 1.0)
          val = 450.0 + 250.0 * std::exp(-3.0 * r_brain * r_brain);
        if (r_vent < 1.0) val = 100.0;
        v.at(x, y, z) = static_cast<float>(val);
      }
    }
  }
  return v;
}

}  // namespace per_voxel

// Index of the first voxel whose bit pattern differs, or size() if none.
std::size_t first_difference(const fire::VolumeF& a, const fire::VolumeF& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return i;
  return a.size();
}

TEST(PhantomTest, SynthesisMatchesPerVoxelFormulation) {
  for (const fire::Dims d : {fire::Dims{1, 1, 1}, fire::Dims{5, 4, 3},
                             fire::Dims{63, 17, 9}, fire::Dims{64, 64, 16},
                             fire::Dims{128, 128, 64}}) {
    SCOPED_TRACE(::testing::Message() << d.nx << "x" << d.ny << "x" << d.nz);
    const fire::VolumeF head = make_head_phantom(d);
    EXPECT_EQ(first_difference(head, per_voxel::head_phantom(d)), head.size());
    const fire::VolumeF anat = make_anatomical(d);
    EXPECT_EQ(first_difference(anat, per_voxel::anatomical(d)), anat.size());
  }
}

FmriConfig small_config() {
  FmriConfig cfg;
  cfg.dims = {24, 24, 8};
  // Activation planted in homogeneous lateral brain tissue (not on the
  // ventricle boundary, where motion + partial-volume effects rightly
  // destroy the correlation).
  cfg.regions = {{7, 15, 4, 3.0, 0.05}};
  cfg.noise_sigma = 2.0;
  cfg.expected_scans = 48;
  return cfg;
}

TEST(FmriGeneratorTest, ActivationFollowsStimulus) {
  FmriConfig cfg = small_config();
  cfg.noise_sigma = 0.0;
  cfg.drift_amplitude = 0.0;
  cfg.cosine_drift_amplitude = 0.0;
  FmriSeriesGenerator gen(cfg);

  // Mean intensity in the activated region rises during "on" plateaus.
  const auto mask = gen.activation_mask();
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < mask.size(); ++i)
    if (mask[i]) active.push_back(i);
  ASSERT_FALSE(active.empty());

  auto region_mean = [&](const fire::VolumeF& img) {
    double acc = 0;
    for (auto i : active) acc += img[i];
    return acc / static_cast<double>(active.size());
  };
  const double rest = region_mean(gen.acquire(5));    // early rest block
  const double peak = region_mean(gen.acquire(17));   // deep into ON block
  EXPECT_GT(peak, rest + 1.0);
}

TEST(FmriGeneratorTest, NoiseIsReproducibleForSeed) {
  FmriConfig cfg = small_config();
  FmriSeriesGenerator a(cfg), b(cfg);
  const fire::VolumeF va = a.acquire(3), vb = b.acquire(3);
  for (std::size_t i = 0; i < va.size(); i += 13)
    EXPECT_FLOAT_EQ(va[i], vb[i]);
}

TEST(FmriGeneratorTest, MotionIsDeterministicPerScan) {
  FmriConfig cfg = small_config();
  cfg.motion.jitter = 0.3;
  FmriSeriesGenerator gen(cfg);
  const auto m1 = gen.motion_at(7);
  const auto m2 = gen.motion_at(7);
  EXPECT_DOUBLE_EQ(m1.tx, m2.tx);
  EXPECT_DOUBLE_EQ(m1.rz, m2.rz);
  // Different scans get different draws.
  EXPECT_NE(gen.motion_at(8).tx, m1.tx);
}

TEST(FmriGeneratorTest, ImageBytesMatchPaperMatrix) {
  FmriConfig cfg;
  cfg.dims = {64, 64, 16};
  FmriSeriesGenerator gen(cfg);
  EXPECT_EQ(gen.image_bytes(), 64u * 64u * 16u * 2u);  // 128 KiB raw
}

// End-to-end numerics: the full analysis chain finds the planted activation
// and rejects quiet tissue — the headline correctness property of FIRE.
TEST(FireIntegrationTest, AnalysisDetectsPlantedActivation) {
  FmriConfig cfg = small_config();
  cfg.drift_amplitude = 5.0;
  FmriSeriesGenerator gen(cfg);

  fire::AnalysisConfig acfg;
  acfg.stimulus = cfg.stimulus;
  acfg.hrf = cfg.hrf;
  acfg.tr_s = cfg.tr_s;
  acfg.detrend_cfg.expected_scans = cfg.expected_scans;
  acfg.motion_correction = false;  // no motion injected here
  fire::AnalysisEngine engine(cfg.dims, acfg);

  for (int t = 0; t < cfg.expected_scans; ++t)
    engine.process_scan(gen.acquire(t));

  const fire::VolumeF map = engine.correlation_map();
  const auto mask = gen.activation_mask();
  double active_mean = 0, quiet_mean = 0;
  int na = 0, nq = 0;
  for (std::size_t i = 0; i < map.size(); ++i) {
    if (mask[i]) {
      active_mean += map[i];
      ++na;
    } else if (gen.baseline()[i] > 100.0f) {
      quiet_mean += std::abs(map[i]);
      ++nq;
    }
  }
  active_mean /= na;
  quiet_mean /= nq;
  EXPECT_GT(active_mean, 0.3);
  EXPECT_LT(quiet_mean, 0.2);
  EXPECT_GT(active_mean, quiet_mean + 0.15);
}

TEST(FireIntegrationTest, MotionCorrectionRescuesCorruptedRun) {
  // With injected motion and correction off, the correlation map degrades;
  // with correction on, the activation is recovered.
  FmriConfig cfg = small_config();
  cfg.motion.jitter = 0.35;
  cfg.motion.rot_jitter = 0.01;

  auto run = [&](bool correct) {
    FmriSeriesGenerator gen(cfg);
    fire::AnalysisConfig acfg;
    acfg.stimulus = cfg.stimulus;
    acfg.hrf = cfg.hrf;
    acfg.tr_s = cfg.tr_s;
    acfg.detrend_cfg.expected_scans = cfg.expected_scans;
    acfg.motion_correction = correct;
    fire::AnalysisEngine engine(cfg.dims, acfg);
    for (int t = 0; t < cfg.expected_scans; ++t)
      engine.process_scan(gen.acquire(t));
    const fire::VolumeF map = engine.correlation_map();
    const auto mask = gen.activation_mask();
    double active_mean = 0;
    int na = 0;
    for (std::size_t i = 0; i < map.size(); ++i)
      if (mask[i]) {
        active_mean += map[i];
        ++na;
      }
    return active_mean / na;
  };

  // Correction cannot restore the motion-free map (every resampling of the
  // moving head costs signal at tissue gradients), but it must recover the
  // activation clearly — a multiple of the uncorrected value.
  const double with = run(true);
  const double without = run(false);
  EXPECT_GT(with, 2.0 * std::max(without, 0.02));
  EXPECT_GT(with, 0.12);
}

TEST(FireIntegrationTest, RoiTimeCourseTracksStimulus) {
  FmriConfig cfg = small_config();
  cfg.noise_sigma = 1.0;
  FmriSeriesGenerator gen(cfg);
  fire::AnalysisConfig acfg;
  acfg.stimulus = cfg.stimulus;
  acfg.hrf = cfg.hrf;
  acfg.tr_s = cfg.tr_s;
  acfg.motion_correction = false;
  acfg.detrend = false;
  fire::AnalysisEngine engine(cfg.dims, acfg);
  for (int t = 0; t < 40; ++t) engine.process_scan(gen.acquire(t));

  const auto mask = gen.activation_mask();
  std::vector<std::size_t> roi;
  for (std::size_t i = 0; i < mask.size(); ++i)
    if (mask[i]) roi.push_back(i);
  const auto tc = engine.roi_time_course(roi);
  ASSERT_EQ(tc.size(), 40u);
  // ON-block samples (scans 15..19, well past the hemodynamic delay) exceed
  // the initial rest block.
  double on = (tc[15] + tc[16] + tc[17] + tc[18] + tc[19]) / 5.0;
  double off = (tc[2] + tc[3] + tc[4] + tc[5] + tc[6]) / 5.0;
  EXPECT_GT(on, off);
}

}  // namespace
}  // namespace gtw::scanner
