#include "fire/filters.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace gtw::fire {

namespace {

// Offsets of lattice points i-1, i and i+1 along an axis of n points with
// the given stride, each clamped into [0, n): clamping them is the only
// thing that sets a border window apart from an interior one.
std::array<std::size_t, 3> window(int i, int n, std::size_t stride) {
  return {stride * static_cast<std::size_t>(std::max(i - 1, 0)),
          stride * static_cast<std::size_t>(i),
          stride * static_cast<std::size_t>(std::min(i + 1, n - 1))};
}

// Median of nine values by Paeth's 19-exchange network (Graphics Gems,
// 1990).  Each exchange leaves the smaller value at the first index.
float median9(std::array<float, 9> p) {
  const auto exchange = [&p](std::size_t a, std::size_t b) {
    const float lo = std::min(p[a], p[b]);
    p[b] = std::max(p[a], p[b]);
    p[a] = lo;
  };
  exchange(1, 2); exchange(4, 5); exchange(7, 8);
  exchange(0, 1); exchange(3, 4); exchange(6, 7);
  exchange(1, 2); exchange(4, 5); exchange(7, 8);
  exchange(0, 3); exchange(5, 8); exchange(4, 7);
  exchange(3, 6); exchange(1, 4); exchange(2, 5);
  exchange(4, 7); exchange(4, 2); exchange(6, 4);
  exchange(4, 2);
  return p[4];
}

}  // namespace

VolumeF median_filter_3x3(const VolumeF& in) {
  const Dims d = in.dims();
  VolumeF out(d);
  const std::size_t nx = static_cast<std::size_t>(d.nx);
  const float* src = in.data().data();
  float* dst = out.data().data();
  for (int z = 0; z < d.nz; ++z) {
    const float* plane =
        src + static_cast<std::size_t>(z) * nx * static_cast<std::size_t>(d.ny);
    for (int y = 0; y < d.ny; ++y) {
      const auto ys = window(y, d.ny, nx);
      const float* r0 = plane + ys[0];
      const float* r1 = plane + ys[1];
      const float* r2 = plane + ys[2];
      for (int x = 0; x < d.nx; ++x) {
        const auto xs = window(x, d.nx, 1);
        *dst++ = median9({r0[xs[0]], r0[xs[1]], r0[xs[2]],
                          r1[xs[0]], r1[xs[1]], r1[xs[2]],
                          r2[xs[0]], r2[xs[1]], r2[xs[2]]});
      }
    }
  }
  return out;
}

VolumeF average_filter_3x3x3(const VolumeF& in) {
  const Dims d = in.dims();
  VolumeF out(d);
  const std::size_t nx = static_cast<std::size_t>(d.nx);
  const float* src = in.data().data();
  float* dst = out.data().data();
  // Interior voxels of a row are summed kBlock at a time, side by side.
  // Each keeps its own sum, so a block runs that many independent chains
  // of additions instead of one.
  constexpr int kBlock = 8;
  for (int z = 0; z < d.nz; ++z) {
    const auto zs = window(z, d.nz, nx * static_cast<std::size_t>(d.ny));
    for (int y = 0; y < d.ny; ++y) {
      const auto ys = window(y, d.ny, nx);
      // The window's nine rows, in the order the sum visits them.
      std::array<const float*, 9> rows{};
      for (std::size_t k = 0; k < rows.size(); ++k)
        rows[k] = src + zs[k / 3] + ys[k % 3];
      // Every voxel adds its 27 floats in this order: the rows in turn,
      // and along each row x-1, x, x+1.
      const auto windowed = [&rows, &d](int x) {
        const auto xs = window(x, d.nx, 1);
        double acc = 0.0;
        for (const float* row : rows)
          for (const std::size_t i : xs) acc += row[i];
        return static_cast<float>(acc / 27.0);
      };
      for (int x = 0; x < d.nx;) {
        if (x < 1 || x + kBlock >= d.nx) {  // a border voxel or a leftover
          dst[x] = windowed(x);
          ++x;
          continue;
        }
        std::array<double, kBlock> acc{};
        for (const float* row : rows) {
          for (int b = 0; b < kBlock; ++b) {
            const float* r = row + x + b;
            acc[b] += r[-1];
            acc[b] += r[0];
            acc[b] += r[1];
          }
        }
        // Of two NaN operands an addition returns one, and which depends on
        // the order the compiler puts them in, so a NaN sum is taken again
        // through windowed().
        for (int b = 0; b < kBlock; ++b)
          dst[x + b] = std::isnan(acc[b]) ? windowed(x + b)
                                          : static_cast<float>(acc[b] / 27.0);
        x += kBlock;
      }
      dst += nx;
    }
  }
  return out;
}

}  // namespace gtw::fire
