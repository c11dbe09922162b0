#include "linalg/matrix.hpp"

#include <cmath>

namespace gtw::linalg {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& o) const {
  assert(cols_ == o.rows_);
  Matrix out(rows_, o.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < o.cols_; ++c) out(r, c) += a * o(k, c);
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  assert(cols_ == v.size());
  Vector out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& o) const {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += o.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& o) const {
  assert(rows_ == o.rows_ && cols_ == o.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= o.data_[i];
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& x : data_) x *= s;
  return *this;
}

double Matrix::norm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

void scale(Vector& v, double s) {
  for (auto& x : v) x *= s;
}

double pearson(const Vector& a, const Vector& b) {
  assert(a.size() == b.size() && !a.empty());
  const double n = static_cast<double>(a.size());
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sa += a[i];
    sb += b[i];
    saa += a[i] * a[i];
    sbb += b[i] * b[i];
    sab += a[i] * b[i];
  }
  const double cov = n * sab - sa * sb;
  const double va = n * saa - sa * sa;
  const double vb = n * sbb - sb * sb;
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace gtw::linalg
