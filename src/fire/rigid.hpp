// Rigid-body (6-parameter) transforms on volumes: used by the scanner model
// to inject subject head motion and by the FIRE motion-correction module to
// undo it ("even small head movements tend to produce artefacts ... an
// iterative linear scheme is used", paper section 4).
#pragma once

#include <array>
#include <vector>

#include "fire/volume.hpp"

namespace gtw::fire {

// Parameters: translations in voxels, rotations in radians about the volume
// centre (x, y, z axes applied in that order).
struct RigidTransform {
  double tx = 0, ty = 0, tz = 0;
  double rx = 0, ry = 0, rz = 0;

  std::array<double, 6> as_array() const { return {tx, ty, tz, rx, ry, rz}; }
  static RigidTransform from_array(const std::array<double, 6>& a) {
    return {a[0], a[1], a[2], a[3], a[4], a[5]};
  }

  RigidTransform inverse_approx() const {
    // For the small motions of a restrained head, negating the parameters
    // inverts the transform to first order.
    return {-tx, -ty, -tz, -rx, -ry, -rz};
  }

  // Map a point (voxel coordinates, origin at the volume centre is handled
  // by the caller) through rotation then translation.
  void apply(double cx, double cy, double cz, double x, double y, double z,
             double& ox, double& oy, double& oz) const;

  double max_abs() const;
};

// Resample `src` through the transform: output voxel v reads
// src.sample(T(v)).  Border voxels clamp.
VolumeF resample(const VolumeF& src, const RigidTransform& t);

// Voxels [x0, x1) of the row at (y, z).
struct RowSpan {
  int y = 0, z = 0;
  int x0 = 0, x1 = 0;
};

// resample() restricted to the voxels of `spans`: each is written into
// `out` (dims as `src`) with the bits resample(src, t) gives it, and every
// other voxel of `out` keeps its value.  The two share one row kernel.
// MotionCorrector warps only the voxels its Gauss-Newton loop reads.
void resample_spans(const VolumeF& src, const RigidTransform& t,
                    const std::vector<RowSpan>& spans, VolumeF& out);

}  // namespace gtw::fire
