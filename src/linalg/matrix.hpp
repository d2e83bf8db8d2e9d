// Dense row-major matrix with the handful of operations the ML stack needs:
// GEMM variants (with transpose flags), row/column slices, element-wise maps.
// Deliberately minimal — no expression templates, no allocator games — so
// the numerical code stays easy to audit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace esm {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value);

  /// Builds from nested initializer data (used by tests).
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of the given order.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Resizes to rows x cols reusing the existing allocation when capacity
  /// allows; element values are unspecified afterwards (stale data may
  /// remain). For hot paths that overwrite the whole matrix (the GEMM
  /// drivers, the fused predict workspace) — use the (rows, cols)
  /// constructor when zero-initialization is needed.
  void reshape(std::size_t rows, std::size_t cols);

  /// Mutable view of row r.
  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  /// Read-only view of row r.
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Sets every element to `value`.
  void fill(double value);

  /// Element-wise in-place map. Takes the callable as a template so hot
  /// paths (activations) inline it instead of paying a type-erased call
  /// per element; pass a std::function explicitly if erasure is needed.
  template <typename F>
  void apply(F&& f) {
    for (double& x : data_) x = f(x);
  }

  /// Transposed copy.
  Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// The GEMM variants below share one cache-blocked, register-tiled,
// vectorized microkernel (see DESIGN.md §6g), run on the caller thread.
// Each output element accumulates its k-products in ascending-k order with
// separate multiply and add (no FMA contraction unless the ESM_FMA build
// option is on), no matter the SIMD width or tiling — so results are
// bit-identical on every backend and to the historical serial kernels.
// `out` must not alias `a` or `b` (checked); a and b may alias each other.

/// out = a * b. Shapes: (m x k) * (k x n) -> (m x n). `out` is resized.
void gemm(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a^T * b. Shapes: (k x m)^T * (k x n) -> (m x n).
void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * b^T. Shapes: (m x k) * (n x k)^T -> (m x n).
void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& out);

/// Name of the compiled-in GEMM backend: "avx512", "avx2", "simd128"
/// (SSE2/NEON-width generic vectors), or "scalar" (ESM_SIMD=off or a
/// compiler without GNU vector extensions).
const char* gemm_backend();

/// SIMD lanes (doubles per vector) of the compiled-in microkernel; 1 for
/// the scalar backend.
std::size_t gemm_simd_width();

/// True when the kernel was built with ESM_FMA=ON (FMA contraction
/// allowed; low-order result bits then differ from the default build).
bool gemm_fma_enabled();

/// Measures the attainable multiply-add peak of this build (same vector
/// width and contraction rules as the microkernel) by timing independent
/// mul+add chains for ~`seconds`. Benchmarks report GEMM throughput as a
/// fraction of it; not a hot-path function.
double gemm_peak_gflops(double seconds = 0.02);

}  // namespace esm
