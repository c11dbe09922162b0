// Language interoperability helpers (an MPI-2 theme the paper names:
// "language-interoperability is needed to couple applications that are
// implemented in different programming languages").
//
// The practical 1999 pain point when coupling a Fortran code (MOM-2, IFS)
// to a C one: multi-dimensional array layout.  A C code iterating
// field[z][y][x] and a Fortran code declaring FIELD(NZ,NY,NX) with the same
// index meaning store the same logical field with *reversed* dimension
// order (C: x fastest; that Fortran declaration: z fastest).  These helpers
// perform the dimension-order reversal.
#pragma once

#include <cstddef>
#include <vector>

namespace gtw::meta {

// 2-D: `src` has x fastest (index = x + nx*y); the result has y fastest
// (index = y + ny*x).  Applying it twice with swapped extents round-trips.
template <typename T>
std::vector<T> to_column_major(const std::vector<T>& src, int nx, int ny) {
  std::vector<T> out(src.size());
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x)
      out[static_cast<std::size_t>(x) * ny + y] =
          src[static_cast<std::size_t>(y) * nx + x];
  return out;
}

template <typename T>
std::vector<T> from_column_major(const std::vector<T>& src, int nx, int ny) {
  std::vector<T> out(src.size());
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x)
      out[static_cast<std::size_t>(y) * nx + x] =
          src[static_cast<std::size_t>(x) * ny + y];
  return out;
}

// 3-D: x-fastest (index = x + nx*(y + ny*z)) <-> z-fastest
// (index = z + nz*(y + ny*x)).
template <typename T>
std::vector<T> to_column_major(const std::vector<T>& src, int nx, int ny,
                               int nz) {
  std::vector<T> out(src.size());
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x)
        out[static_cast<std::size_t>(z) +
            static_cast<std::size_t>(nz) *
                (static_cast<std::size_t>(y) +
                 static_cast<std::size_t>(ny) * static_cast<std::size_t>(x))] =
            src[(static_cast<std::size_t>(z) * ny + y) * nx + x];
  return out;
}

template <typename T>
std::vector<T> from_column_major(const std::vector<T>& src, int nx, int ny,
                                 int nz) {
  std::vector<T> out(src.size());
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x)
        out[(static_cast<std::size_t>(z) * ny + y) * nx + x] =
            src[static_cast<std::size_t>(z) +
                static_cast<std::size_t>(nz) *
                    (static_cast<std::size_t>(y) +
                     static_cast<std::size_t>(ny) *
                         static_cast<std::size_t>(x))];
  return out;
}

}  // namespace gtw::meta
