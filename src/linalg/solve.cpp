#include "linalg/solve.hpp"

#include <cmath>
#include <stdexcept>

namespace gtw::linalg {

Vector solve_spd(const Matrix& m_in, const Vector& b) {
  const std::size_t n = m_in.rows();
  if (m_in.cols() != n || b.size() != n)
    throw std::runtime_error("solve_spd: size mismatch");
  // Cholesky M = L L^T.
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = m_in(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0) throw std::runtime_error("solve_spd: not positive definite");
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  // Forward then back substitution.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

}  // namespace gtw::linalg
