// Spatial filters of the FIRE processing pipeline (paper section 4):
// "a median filter is used to reduce noise in the unprocessed picture.
// After the processing pipeline, the data can be smoothened by an averaging
// filter."  Both operate slice-wise / block-wise with edge clamping and
// expose work estimates for the parallel execution model.
#pragma once

#include "fire/volume.hpp"

namespace gtw::fire {

// In-plane 3x3 median per slice (robust impulse/noise suppression on the
// raw EPI images before analysis).
VolumeF median_filter_3x3(const VolumeF& in);

// 3x3x3 boxcar smoothing (post-pipeline spatial smoothing of maps).
VolumeF average_filter_3x3x3(const VolumeF& in);

// Work accounting used by exec::time_on: effective operations per voxel of
// the 1999 T3E code (a 9-element gather and a partial selection with its
// branchy comparisons; a 27-element gather and accumulate).  They set the
// simulated filter times behind Table 1, fig2 and e2, so they model that
// code and must not follow host-side rewrites of the functions above.
constexpr double kMedianOpsPerVoxel = 66.0;
constexpr double kAverageOpsPerVoxel = 60.0;

}  // namespace gtw::fire
