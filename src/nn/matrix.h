// Minimal dense row-major matrix for the predictor models. Sized for the paper's
// workloads (feature dims up to ~5400, hidden width 256), not for general BLAS use.
#ifndef SRC_NN_MATRIX_H_
#define SRC_NN_MATRIX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace litereconfig {

// std::allocator, except that growing a vector without a value leaves the new
// elements default-initialised, i.e. a double uninitialised: storage that is
// written in full straight away is not zero-filled first.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class Matrix {
 public:
  using Storage = std::vector<double, DefaultInitAllocator<double>>;

  Matrix() = default;
  // Zero-filled.
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  const Storage& data() const { return data_; }
  Storage& data() { return data_; }

  Matrix Transposed() const;
  // The cols x rows transpose of the row-major rows x cols array `src`,
  // written straight into fresh storage that is not zero-filled first.
  static Matrix TransposeOf(std::span<const double> src, size_t rows, size_t cols);

  // Xavier/Glorot uniform initialization, deterministic in the seed.
  static Matrix XavierUniform(size_t rows, size_t cols, uint64_t seed);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  Storage data_;
};

// Solves (A + ridge*I) x = b for symmetric positive definite A via Cholesky.
// A is n x n, b is n. Returns the solution; requires A to be SPD after ridging.
std::vector<double> CholeskySolve(const Matrix& a, const std::vector<double>& b,
                                  double ridge);

// Whether no value is NaN or infinite. Integer-only and branch-free, so the
// compiler can vectorize it: a model load checks every stored parameter.
inline bool AllFinite(std::span<const double> values) {
  constexpr uint64_t kExponent = 0x7ff0000000000000ull;
  uint64_t carry = 0;
  for (double v : values) {
    // Adding one to the exponent field carries into the sign bit only from
    // an all-ones exponent, i.e. from a NaN or an infinity.
    carry |= (std::bit_cast<uint64_t>(v) & kExponent) + (uint64_t{1} << 52);
  }
  return (carry >> 63) == 0;
}

}  // namespace litereconfig

#endif  // SRC_NN_MATRIX_H_
