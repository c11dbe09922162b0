// 3-D movement correction: "even small head movements of the subject tend
// to produce artefacts in the correlation coefficient due to the high
// intrinsic contrast of the MR images ... Here an iterative linear scheme
// is used" (paper section 4).
//
// Gauss-Newton on the 6 rigid parameters: each iteration warps the scan by
// the current estimate, linearises the intensity residual against the
// reference through the warped image's spatial gradients, and solves the
// 6x6 normal equations.  The estimate is made on 3x3x3-smoothed images and
// applied to the original scan: sharp tissue/air edges otherwise make
// trilinear interpolation error dominate the residual and bias the fit.
//
// What correct() warps.  The loop reads the warped image only at the
// interior foreground voxels of the reference and at their six face
// neighbours, some of which lie on the border.  That read set depends on
// the reference alone, so the constructor stores it once as row spans, and
// each iteration warps only those voxels (resample_spans) into one volume
// kept across iterations.  The iteration that ends the loop, by meeting
// the tolerance or the iteration cap, warps nothing: no later iteration
// would read it.  Each voxel the loop reads holds the bits a full
// resample() gives it, so the estimate, the RMSEs and the corrected scan
// are bit for bit those of warping the whole volume in every iteration.
#pragma once

#include <vector>

#include "fire/rigid.hpp"
#include "fire/volume.hpp"

namespace gtw::fire {

struct MotionConfig {
  int max_iterations = 12;
  double tolerance = 1e-4;       // stop when the update is this small
  double foreground_fraction = 0.2;  // of max intensity; masks air voxels
};

struct MotionResult {
  RigidTransform estimate;  // transform that aligns the scan to the reference
  VolumeF corrected;        // scan resampled into the reference frame
  int iterations = 0;
  double initial_rmse = 0.0;
  double final_rmse = 0.0;
};

class MotionCorrector {
 public:
  explicit MotionCorrector(VolumeF reference, MotionConfig cfg = {});

  // Throws std::invalid_argument if the scan's dims differ from the
  // reference's.
  MotionResult correct(const VolumeF& scan) const;

  const VolumeF& reference() const { return ref_; }

 private:
  VolumeF ref_;  // smoothed
  MotionConfig cfg_;
  float mask_threshold_ = 0.0f;
  std::vector<RowSpan> read_set_;  // voxels the loop reads from the warp
};

// Execution-model work accounting: per voxel per Gauss-Newton iteration of
// the 1999 T3E code, a trilinear warp (~33 ops), central gradients (~18)
// and the J^T J / J^T r accumulation (~62).  They set the simulated
// motion-correction times behind Table 1, fig2 and e2, so they model that
// code and must not follow host-side rewrites of correct() or resample().
constexpr double kMotionOpsPerVoxelIter = 113.0;
constexpr int kMotionTypicalIters = 8;

}  // namespace gtw::fire
