#include "src/nn/matrix.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/util/rng.h"

namespace litereconfig {

Matrix Matrix::Transposed() const { return TransposeOf(data_, rows_, cols_); }

Matrix Matrix::TransposeOf(std::span<const double> src, size_t rows, size_t cols) {
  assert(src.size() == rows * cols);
  Matrix out;
  out.rows_ = cols;
  out.cols_ = rows;
  out.data_.resize(rows * cols);
  // In destination order: the writes stream, and the strided reads of one
  // destination row touch one cache line per source row, which the next
  // rows read again (faster than 8-row tiles or 2x2 register blocks at the
  // accuracy nets' shapes).
  double* dst = out.data_.data();
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      *dst++ = src[r * cols + c];
    }
  }
  return out;
}

Matrix Matrix::XavierUniform(size_t rows, size_t cols, uint64_t seed) {
  Matrix out(rows, cols);
  Pcg32 rng(seed);
  double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& v : out.data()) {
    v = rng.Uniform(-limit, limit);
  }
  return out;
}

std::vector<double> CholeskySolve(const Matrix& a, const std::vector<double>& b,
                                  double ridge) {
  size_t n = a.rows();
  assert(a.cols() == n && b.size() == n);
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j) + (i == j ? ridge : 0.0);
      for (size_t k = 0; k < j; ++k) {
        sum -= l(i, k) * l(j, k);
      }
      if (i == j) {
        if (sum <= 0.0) {
          throw std::runtime_error("CholeskySolve: matrix not positive definite");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  // Forward solve L y = b.
  std::vector<double> y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) {
      sum -= l(i, k) * y[k];
    }
    y[i] = sum / l(i, i);
  }
  // Back solve L^T x = y.
  std::vector<double> x(n, 0.0);
  for (size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (size_t k = i + 1; k < n; ++k) {
      sum -= l(k, i) * x[k];
    }
    x[i] = sum / l(i, i);
  }
  return x;
}

}  // namespace litereconfig
