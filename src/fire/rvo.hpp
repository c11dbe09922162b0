// Reference Vector Optimisation (RVO) — the dominant module in the paper's
// Table 1: "a fully automatic least-squares fit of delay and duration is
// performed for each voxel during the measurement.  The procedure rasters
// the parameter space to find the global minimum."
//
// For every voxel, the best-correlating reference among a raster of
// (delay, dispersion) HRF parameters is found.  The planned optimisation
// the paper mentions ("the resolution of the grid can be reduced and the
// solution refined using a conjugate gradient method") is implemented as
// RvoMode::kCoarseRefine, benchmarked in the A1 ablation.
#pragma once

#include <cstdint>
#include <vector>

#include "fire/reference.hpp"
#include "fire/volume.hpp"

namespace gtw::fire {

enum class RvoMode {
  kFullRaster,     // paper's implementation: dense grid search
  kCoarseRefine,   // coarse grid + local iterative refinement (extension)
};

struct RvoConfig {
  // Raster over delay x dispersion.
  double delay_min_s = 3.0, delay_max_s = 9.0;
  double disp_min_s = 0.5, disp_max_s = 3.5;
  int delay_steps = 10;
  int disp_steps = 10;
  RvoMode mode = RvoMode::kFullRaster;
  int coarse_factor = 3;    // coarse grid is steps/factor in each dimension
  int refine_iterations = 6;
  // Voxels below this fraction of the mean intensity are skipped (air).
  double min_intensity_fraction = 0.1;
};

struct RvoVoxelFit {
  float best_correlation = 0.0f;
  float delay_s = 0.0f;
  float dispersion_s = 0.0f;
};

struct RvoResult {
  std::vector<RvoVoxelFit> fits;  // per voxel
  VolumeF correlation_map;
  VolumeF delay_map;
  std::uint64_t reference_evaluations = 0;  // grid points x voxels touched
};

class RvoAnalyzer {
 public:
  RvoAnalyzer(Dims dims, StimulusDesign stim, double tr_s, RvoConfig cfg = {});

  // Run the fit over the voxel time series accumulated so far.  `series`
  // holds one volume per scan (all with the analyzer's dims).
  RvoResult analyze(const std::vector<VolumeF>& series) const;

  const RvoConfig& config() const { return cfg_; }

 private:
  struct Candidate {
    double delay, dispersion;
    std::vector<double> reference;  // z-normalised, length = max scans seen
  };

  // Correlation of one voxel's series with a z-normalised reference.
  static double correlate(const std::vector<double>& voxel_series,
                          const std::vector<double>& ref);
  std::vector<double> reference_for(double delay, double dispersion,
                                    int n_scans) const;

  Dims dims_;
  StimulusDesign stim_;
  double tr_s_;
  RvoConfig cfg_;
};

// Work accounting for the execution model: ops per voxel = grid points x
// scans x ~6 (multiply-add on the running sums).
constexpr double kRvoOpsPerSample = 6.0;

}  // namespace gtw::fire
