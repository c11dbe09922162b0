#include "fire/rigid.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

namespace gtw::fire {

namespace {

// A RigidTransform with the sines and cosines of its rotation evaluated
// once, so that mapping a point costs only its arithmetic.
// RigidTransform::apply and resample both map points through it, so a
// point maps to the same bits either way.
class RigidMap {
 public:
  explicit RigidMap(const RigidTransform& t)
      : cos_x_(std::cos(t.rx)), sin_x_(std::sin(t.rx)),
        cos_y_(std::cos(t.ry)), sin_y_(std::sin(t.ry)),
        cos_z_(std::cos(t.rz)), sin_z_(std::sin(t.rz)),
        tx_(t.tx), ty_(t.ty), tz_(t.tz) {}

  void apply(double cx, double cy, double cz, double x, double y, double z,
             double& ox, double& oy, double& oz) const {
    // Centre-relative coordinates.
    double px = x - cx, py = y - cy, pz = z - cz;
    // Rotate about x.
    {
      const double ny = cos_x_ * py - sin_x_ * pz,
                   nz = sin_x_ * py + cos_x_ * pz;
      py = ny;
      pz = nz;
    }
    // Rotate about y.
    {
      const double nx = cos_y_ * px + sin_y_ * pz,
                   nz = -sin_y_ * px + cos_y_ * pz;
      px = nx;
      pz = nz;
    }
    // Rotate about z.
    {
      const double nx = cos_z_ * px - sin_z_ * py,
                   ny = sin_z_ * px + cos_z_ * py;
      px = nx;
      py = ny;
    }
    ox = px + cx + tx_;
    oy = py + cy + ty_;
    oz = pz + cz + tz_;
  }

 private:
  double cos_x_, sin_x_, cos_y_, sin_y_, cos_z_, sin_z_;
  double tx_, ty_, tz_;
};

// Warps voxels [x0, x1) of row (y, z): out_row[x] = src.sample(T(x, y, z)).
// A chunk of the row is mapped first, then sampled.  A point whose floor
// lies in [0, n - 2] on every axis reads its cell's eight corners straight
// through corner_sum(), which is the sum sample() takes there; any other
// point, and any whose sum is NaN (sample() sums those again), goes
// through sample() itself.
void warp_row(const VolumeF& src, const RigidMap& map, int y, int z, int x0,
              int x1, float* out_row) {
  const Dims d = src.dims();
  const double cx = (d.nx - 1) / 2.0;
  const double cy = (d.ny - 1) / 2.0;
  const double cz = (d.nz - 1) / 2.0;
  const std::size_t row = static_cast<std::size_t>(d.nx);
  const std::size_t plane = row * static_cast<std::size_t>(d.ny);
  constexpr int kChunk = 16;
  std::array<double, kChunk> px{}, py{}, pz{};
  for (int c = x0; c < x1; c += kChunk) {
    // The whole chunk is mapped, past the row's end too: a loop of fixed
    // length lets the compiler map several points per instruction.
    for (int i = 0; i < kChunk; ++i)
      map.apply(cx, cy, cz, c + i, y, z, px[i], py[i], pz[i]);
    const int n = std::min(kChunk, x1 - c);
    for (int i = 0; i < n; ++i) {
      const double sx = px[i], sy = py[i], sz = pz[i];
      if (sx >= 0.0 && sx < d.nx - 1 && sy >= 0.0 && sy < d.ny - 1 &&
          sz >= 0.0 && sz < d.nz - 1) {
        // Non-negative, so truncation is the floor.
        const int ix = static_cast<int>(sx), iy = static_cast<int>(sy),
                  iz = static_cast<int>(sz);
        const std::size_t x_lo = static_cast<std::size_t>(ix);
        const std::size_t y_lo = static_cast<std::size_t>(iy) * row;
        const std::size_t z_lo = static_cast<std::size_t>(iz) * plane;
        const double v = src.corner_sum(sx - ix, sy - iy, sz - iz, x_lo,
                                        x_lo + 1, y_lo, y_lo + row, z_lo,
                                        z_lo + plane);
        if (!std::isnan(v)) {
          out_row[c + i] = static_cast<float>(v);
          continue;
        }
      }
      out_row[c + i] = static_cast<float>(src.sample(sx, sy, sz));
    }
  }
}

}  // namespace

void RigidTransform::apply(double cx, double cy, double cz, double x,
                           double y, double z, double& ox, double& oy,
                           double& oz) const {
  RigidMap(*this).apply(cx, cy, cz, x, y, z, ox, oy, oz);
}

double RigidTransform::max_abs() const {
  return std::max({std::abs(tx), std::abs(ty), std::abs(tz), std::abs(rx),
                   std::abs(ry), std::abs(rz)});
}

VolumeF resample(const VolumeF& src, const RigidTransform& t) {
  const Dims d = src.dims();
  VolumeF out(d);
  const RigidMap map(t);
  for (int z = 0; z < d.nz; ++z)
    for (int y = 0; y < d.ny; ++y)
      warp_row(src, map, y, z, 0, d.nx, &out.at(0, y, z));
  return out;
}

void resample_spans(const VolumeF& src, const RigidTransform& t,
                    const std::vector<RowSpan>& spans, VolumeF& out) {
  assert(out.dims() == src.dims());
  const RigidMap map(t);
  for (const RowSpan& s : spans)
    warp_row(src, map, s.y, s.z, s.x0, s.x1, &out.at(0, s.y, s.z));
}

}  // namespace gtw::fire
