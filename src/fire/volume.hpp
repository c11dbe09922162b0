// 3-D image volume, the unit of data in the FIRE pipeline (Functional
// Imaging in REaltime, developed at the Institute of Medicine, FZ Jülich).
// Typical functional matrix in the paper: 64x64x16 voxels; anatomical
// reference volumes are 256x256x128.
#pragma once

#include <algorithm>
#include <array>
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
    std::array<std::size_t, 2> xs{}, ys{}, zs{};
    if (x0 >= 0 && x0 < dims_.nx - 1 && y0 >= 0 && y0 < dims_.ny - 1 &&
        z0 >= 0 && z0 < dims_.nz - 1) {
      const auto ux = static_cast<std::size_t>(x0);
      const auto uy = static_cast<std::size_t>(y0);
      const auto uz = static_cast<std::size_t>(z0);
      xs = {ux, ux + 1};
      ys = {uy * sy, (uy + 1) * sy};
      zs = {uz * sz, (uz + 1) * sz};
    } else {
      const auto clamp_pair = [](int i, int n, std::size_t stride) {
        return std::array<std::size_t, 2>{
            stride * static_cast<std::size_t>(std::clamp(i, 0, n - 1)),
            stride * static_cast<std::size_t>(std::clamp(i + 1, 0, n - 1))};
      };
      xs = clamp_pair(x0, dims_.nx, 1);
      ys = clamp_pair(y0, dims_.ny, sy);
      zs = clamp_pair(z0, dims_.nz, sz);
    }
    const T* p = data_.data();
    double acc = 0.0;
    for (std::size_t dz = 0; dz < 2; ++dz) {
      const double wz = dz != 0 ? fz : 1.0 - fz;
      if (wz == 0.0) continue;
      for (std::size_t dy = 0; dy < 2; ++dy) {
        const double wy = dy != 0 ? fy : 1.0 - fy;
        if (wy == 0.0) continue;
        const T* row = p + zs[dz] + ys[dy];
        for (std::size_t dx = 0; dx < 2; ++dx) {
          const double wx = dx != 0 ? fx : 1.0 - fx;
          if (wx == 0.0) continue;
          acc += wx * wy * wz * static_cast<double>(row[xs[dx]]);
        }
      }
    }
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
