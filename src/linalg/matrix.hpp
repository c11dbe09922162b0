// Small dense linear algebra used by the numerical kernels: the FIRE motion
// correction and reference-vector optimisation, the MUSIC dipole scan, and
// the groundwater flow solver.  Column counts here are tiny (<= a few
// hundred), so a straightforward row-major dense matrix is the right tool.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace gtw::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  Matrix transposed() const;
  Matrix operator*(const Matrix& o) const;
  Vector operator*(const Vector& v) const;
  Matrix operator+(const Matrix& o) const;
  Matrix operator-(const Matrix& o) const;
  Matrix& operator*=(double s);

  // Frobenius norm.
  double norm() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

// Basic vector helpers.
double dot(const Vector& a, const Vector& b);
double norm2(const Vector& a);
void scale(Vector& v, double s);

// Sample Pearson correlation between two equal-length series.
double pearson(const Vector& a, const Vector& b);

}  // namespace gtw::linalg
