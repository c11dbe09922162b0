// 3-D image volume, the unit of data in the FIRE pipeline (Functional
// Imaging in REaltime, developed at the Institute of Medicine, FZ Jülich).
// Typical functional matrix in the paper: 64x64x16 voxels; anatomical
// reference volumes are 256x256x128.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace gtw::fire {

struct Dims {
  int nx = 0, ny = 0, nz = 0;
  std::size_t voxels() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
           static_cast<std::size_t>(nz);
  }
  bool operator==(const Dims&) const = default;
};

template <typename T>
class Volume {
 public:
  Volume() = default;
  explicit Volume(Dims d, T fill = T{})
      : dims_(d), data_(d.voxels(), fill) {}
  Volume(int nx, int ny, int nz, T fill = T{})
      : Volume(Dims{nx, ny, nz}, fill) {}

  const Dims& dims() const { return dims_; }
  std::size_t size() const { return data_.size(); }
  std::size_t size_bytes() const { return data_.size() * sizeof(T); }
  bool empty() const { return data_.empty(); }

  T& at(int x, int y, int z) { return data_[index(x, y, z)]; }
  T at(int x, int y, int z) const { return data_[index(x, y, z)]; }
  T& operator[](std::size_t i) { return data_[i]; }
  T operator[](std::size_t i) const { return data_[i]; }

  const std::vector<T>& data() const { return data_; }
  std::vector<T>& data() { return data_; }

  // Clamped access: out-of-bounds coordinates read the nearest edge voxel.
  T clamped(int x, int y, int z) const {
    x = std::min(std::max(x, 0), dims_.nx - 1);
    y = std::min(std::max(y, 0), dims_.ny - 1);
    z = std::min(std::max(z, 0), dims_.nz - 1);
    return data_[index(x, y, z)];
  }

  // Trilinear interpolation at a continuous voxel coordinate; coordinates
  // outside the volume are clamped to the border, and a NaN coordinate
  // gives NaN.
  double sample(double x, double y, double z) const {
    if (std::isnan(x) || std::isnan(y) || std::isnan(z))
      return std::numeric_limits<double>::quiet_NaN();
    // Any coordinate this far out reads the edge; the limit keeps the int
    // conversion below, and the index one past it, defined.
    constexpr double kFar = 0x1p30;
    x = std::clamp(x, -kFar, kFar);
    y = std::clamp(y, -kFar, kFar);
    z = std::clamp(z, -kFar, kFar);
    // std::floor as an int for |v| <= kFar: truncate toward zero, then
    // step down below a negative non-integer.
    const auto floor_int = [](double v) {
      const int i = static_cast<int>(v);
      return v < i ? i - 1 : i;
    };
    const int x0 = floor_int(x), y0 = floor_int(y), z0 = floor_int(z);
    const double fx = x - x0, fy = y - y0, fz = z - z0;
    // Offsets of the lattice points on either side along each axis.  A
    // border sample clamps them; nothing else sets it apart.
    const std::size_t sy = static_cast<std::size_t>(dims_.nx);
    const std::size_t sz = sy * static_cast<std::size_t>(dims_.ny);
    std::size_t x_lo, x_hi, y_lo, y_hi, z_lo, z_hi;
    if (x0 >= 0 && x0 < dims_.nx - 1 && y0 >= 0 && y0 < dims_.ny - 1 &&
        z0 >= 0 && z0 < dims_.nz - 1) {
      x_lo = static_cast<std::size_t>(x0);
      y_lo = static_cast<std::size_t>(y0) * sy;
      z_lo = static_cast<std::size_t>(z0) * sz;
      x_hi = x_lo + 1;
      y_hi = y_lo + sy;
      z_hi = z_lo + sz;
    } else {
      const auto clamped_offset = [](int i, int n, std::size_t stride) {
        return stride * static_cast<std::size_t>(std::clamp(i, 0, n - 1));
      };
      x_lo = clamped_offset(x0, dims_.nx, 1);
      x_hi = clamped_offset(x0 + 1, dims_.nx, 1);
      y_lo = clamped_offset(y0, dims_.ny, sy);
      y_hi = clamped_offset(y0 + 1, dims_.ny, sy);
      z_lo = clamped_offset(z0, dims_.nz, sz);
      z_hi = clamped_offset(z0 + 1, dims_.nz, sz);
    }
    // corner_sum() adds the eight corners with no test on the weights.  A
    // corner of zero weight adds a zero product where the plain trilinear
    // sum skips it, and that leaves the sum bit for bit as it was: the sum
    // starts at +0.0, round-to-nearest addition gives -0.0 only from two
    // -0.0 operands, so the sum is never -0.0, and adding a zero keeps
    // whatever it holds.  Only a zero weight on an infinite or NaN voxel
    // differs: its product is NaN.  So a NaN sum is summed again, skipping
    // zero weights.  That sum is a loop, as the plain formulation's is, so
    // that the running sum stays the left operand of every addition: of
    // two NaN operands, x86 returns the left.
    double acc = corner_sum(fx, fy, fz, x_lo, x_hi, y_lo, y_hi, z_lo, z_hi);
    if (!std::isnan(acc)) return acc;
    const double lx = 1.0 - fx, ly = 1.0 - fy, lz = 1.0 - fz;  // low side
    acc = 0.0;
    for (unsigned c = 0; c < 8; ++c) {  // bits: z, y, x high side
      const bool hx = (c & 1u) != 0, hy = (c & 2u) != 0, hz = (c & 4u) != 0;
      const double wx = hx ? fx : lx, wy = hy ? fy : ly, wz = hz ? fz : lz;
      if (wx == 0.0 || wy == 0.0 || wz == 0.0) continue;
      const std::size_t offset =
          (hz ? z_hi : z_lo) + (hy ? y_hi : y_lo) + (hx ? x_hi : x_lo);
      acc += wx * wy * wz * static_cast<double>(data_[offset]);
    }
    return acc;
  }

  // The trilinear sum of sample() over one lattice cell: its eight corners,
  // at the given offsets into data() on the low and high side of each
  // axis, in z, y, x order, each weighted ((wx * wy) * wz), where the high
  // side weighs the fraction and the low side one minus it.
  double corner_sum(double fx, double fy, double fz, std::size_t x_lo,
                    std::size_t x_hi, std::size_t y_lo, std::size_t y_hi,
                    std::size_t z_lo, std::size_t z_hi) const {
    const T* p = data_.data();
    const double lx = 1.0 - fx, ly = 1.0 - fy, lz = 1.0 - fz;  // low side
    const auto corner = [p](double wx, double wy, double wz,
                            std::size_t offset) {
      return wx * wy * wz * static_cast<double>(p[offset]);
    };
    double acc = 0.0;
    acc += corner(lx, ly, lz, z_lo + y_lo + x_lo);
    acc += corner(fx, ly, lz, z_lo + y_lo + x_hi);
    acc += corner(lx, fy, lz, z_lo + y_hi + x_lo);
    acc += corner(fx, fy, lz, z_lo + y_hi + x_hi);
    acc += corner(lx, ly, fz, z_hi + y_lo + x_lo);
    acc += corner(fx, ly, fz, z_hi + y_lo + x_hi);
    acc += corner(lx, fy, fz, z_hi + y_hi + x_lo);
    acc += corner(fx, fy, fz, z_hi + y_hi + x_hi);
    return acc;
  }

  double mean() const {
    if (data_.empty()) return 0.0;
    double s = 0.0;
    for (const T& v : data_) s += static_cast<double>(v);
    return s / static_cast<double>(data_.size());
  }

 private:
  std::size_t index(int x, int y, int z) const {
    assert(x >= 0 && x < dims_.nx && y >= 0 && y < dims_.ny && z >= 0 &&
           z < dims_.nz);
    return (static_cast<std::size_t>(z) * dims_.ny +
            static_cast<std::size_t>(y)) *
               dims_.nx +
           static_cast<std::size_t>(x);
  }

  Dims dims_;
  std::vector<T> data_;
};

using VolumeF = Volume<float>;

}  // namespace gtw::fire
