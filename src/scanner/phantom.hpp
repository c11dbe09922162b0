// Synthetic head phantom and fMRI time-series generator — the stand-in for
// the paper's 1.5 T Siemens Vision MRI scanner and human subject (see
// DESIGN.md substitution table).  The generator produces EPI volumes whose
// activated voxels follow boxcar-stimulus (x) hemodynamic-response time
// courses (BOLD effect, Ogawa et al. 1990), corrupted by thermal noise,
// slow baseline drift and rigid head motion, with full ground truth exposed
// for testing.
#pragma once

#include <cstdint>
#include <vector>

#include "des/random.hpp"
#include "fire/reference.hpp"
#include "fire/rigid.hpp"
#include "fire/volume.hpp"

namespace gtw::scanner {

// Ellipsoidal head with skull shell, brain tissue (smoothly varying) and
// dark ventricles; intensities roughly EPI-like in [0, 1000].
fire::VolumeF make_head_phantom(fire::Dims dims);

// High-resolution anatomical volume of the same geometry (paper: 256x256x128
// acquired before the functional measurement, merged on the Onyx 2).
fire::VolumeF make_anatomical(fire::Dims dims);

struct ActivationRegion {
  double cx, cy, cz;      // centre, voxel coordinates
  double radius;          // voxels
  double amplitude = 0.03;  // BOLD amplitude, fraction of baseline
};

struct MotionModel {
  double drift_per_scan = 0.0;   // slow translation drift, voxels/scan
  double jitter = 0.0;           // random per-scan translation sigma, voxels
  double rot_jitter = 0.0;       // random rotation sigma, radians
};

struct FmriConfig {
  fire::Dims dims{64, 64, 16};
  double tr_s = 2.0;
  fire::StimulusDesign stimulus;
  fire::HrfParams hrf;                     // ground-truth response
  std::vector<ActivationRegion> regions;
  double noise_sigma = 4.0;                // additive Gaussian, image units
  double drift_amplitude = 6.0;            // linear drift over the run
  double cosine_drift_amplitude = 4.0;     // slow cosine drift
  int expected_scans = 128;
  MotionModel motion;
  std::uint64_t seed = 12345;
};

class FmriSeriesGenerator {
 public:
  explicit FmriSeriesGenerator(FmriConfig cfg);

  // Produce the scan at index `t` (call with consecutive t from 0).
  fire::VolumeF acquire(int t);

  // Ground truth for verification.
  const fire::VolumeF& baseline() const { return baseline_; }
  const std::vector<double>& true_response() const { return response_; }
  fire::Volume<std::uint8_t> activation_mask() const;
  fire::RigidTransform motion_at(int t) const;
  const FmriConfig& config() const { return cfg_; }

  // Bytes of one raw image as the scanner front-end emits it (16-bit
  // voxels, as the Siemens reconstruction produced).
  std::uint64_t image_bytes() const { return cfg_.dims.voxels() * 2; }

 private:
  FmriConfig cfg_;
  fire::VolumeF baseline_;
  fire::VolumeF amplitude_;         // per-voxel activation amplitude x baseline
  std::vector<double> response_;    // normalised BOLD time course
  des::Rng rng_;
  mutable des::Rng motion_rng_;
};

}  // namespace gtw::scanner
