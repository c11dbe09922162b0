// Incremental detrending: "the measured signal often includes slow baseline
// drifts.  A compensation using a few detrending-vectors can compensate for
// that" (paper section 4).
//
// The basis holds a constant, polynomial drift terms and a slow half-cosine.
// Per voxel we keep b = B^T x updated incrementally; the detrended value of
// the newest scan is x_t - B_t (G_t^{-1} b) where G_t = B^T B over the scans
// so far depends only on t and is shared by all voxels.
#pragma once

#include <vector>

#include "fire/volume.hpp"
#include "linalg/matrix.hpp"

namespace gtw::fire {

struct DetrendConfig {
  int poly_order = 1;       // 0 = constant only, 1 = +linear, 2 = +quadratic
  int expected_scans = 128; // horizon used to scale the basis functions
};

class IncrementalDetrend {
 public:
  IncrementalDetrend(Dims dims, DetrendConfig cfg);

  // Feed the scan at index `t` (consecutive from 0); returns the detrended
  // image (residual after projecting out the basis fitted to scans 0..t).
  VolumeF add_scan(const VolumeF& image);

  int scans() const { return t_; }

 private:
  double basis(int j, int t) const;

  Dims dims_;
  DetrendConfig cfg_;
  int k_ = 0;
  int t_ = 0;
  linalg::Matrix gram_;                 // G = B^T B accumulated over scans
  std::vector<std::vector<double>> bt_; // per basis fn: B^T x per voxel
};

// Work accounting: per voxel per scan ~2k multiply-adds for the update plus
// the (shared) small solve; evaluation ~k.
constexpr double kDetrendOpsPerVoxelScanPerBasis = 4.0;

}  // namespace gtw::fire
