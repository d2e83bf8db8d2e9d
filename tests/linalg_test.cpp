// Unit tests for src/linalg: Matrix, GEMM variants, Cholesky, ridge least
// squares, and standardization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/standardizer.hpp"

namespace esm {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

/// Naive reference GEMM.
Matrix naive_mul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

void expect_matrix_near(const Matrix& a, const Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a(i, j), b(i, j), tol) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
  }
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(MatrixTest, FromRowsAndIdentity) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  const Matrix id = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(id(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
}

TEST(MatrixTest, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1.0}, {1.0, 2.0}}), ConfigError);
}

TEST(MatrixTest, RowSpanIsView) {
  Matrix m(2, 2);
  auto row = m.row(1);
  row[0] = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(MatrixTest, FillAndApply) {
  Matrix m(2, 2);
  m.fill(2.0);
  m.apply([](double x) { return x * x + 1.0; });
  EXPECT_DOUBLE_EQ(m(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 5.0);
}

TEST(MatrixTest, Transposed) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(GemmTest, MatchesNaiveReference) {
  Rng rng(1);
  const Matrix a = random_matrix(7, 5, rng);
  const Matrix b = random_matrix(5, 9, rng);
  Matrix out;
  gemm(a, b, out);
  expect_matrix_near(out, naive_mul(a, b), 1e-12);
}

TEST(GemmTest, AtBMatchesReference) {
  Rng rng(2);
  const Matrix a = random_matrix(6, 4, rng);
  const Matrix b = random_matrix(6, 3, rng);
  Matrix out;
  gemm_at_b(a, b, out);
  expect_matrix_near(out, naive_mul(a.transposed(), b), 1e-12);
}

TEST(GemmTest, ABtMatchesReference) {
  Rng rng(3);
  const Matrix a = random_matrix(4, 6, rng);
  const Matrix b = random_matrix(5, 6, rng);
  Matrix out;
  gemm_a_bt(a, b, out);
  expect_matrix_near(out, naive_mul(a, b.transposed()), 1e-12);
}

TEST(GemmTest, IdentityIsNeutral) {
  Rng rng(4);
  const Matrix a = random_matrix(3, 3, rng);
  Matrix out;
  gemm(a, Matrix::identity(3), out);
  expect_matrix_near(out, a, 1e-12);
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  // A = L0 * L0^T with a known L0.
  const Matrix l0 = Matrix::from_rows(
      {{2.0, 0.0, 0.0}, {1.0, 3.0, 0.0}, {0.5, -1.0, 1.5}});
  Matrix a;
  gemm_a_bt(l0, l0, a);
  auto factor = cholesky(a);
  ASSERT_TRUE(factor.has_value());
  expect_matrix_near(*factor, l0, 1e-10);
}

TEST(CholeskyTest, RejectsIndefinite) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});  // eig -1, 3
  EXPECT_FALSE(cholesky(a).has_value());
}

TEST(CholeskyTest, SolveRecoversSolution) {
  Rng rng(5);
  const Matrix l0 = Matrix::from_rows(
      {{3.0, 0.0, 0.0}, {0.5, 2.0, 0.0}, {1.0, 1.0, 4.0}});
  Matrix a;
  gemm_a_bt(l0, l0, a);
  const std::vector<double> x_true{1.0, -2.0, 0.5};
  std::vector<double> b(3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) b[i] += a(i, j) * x_true[j];
  }
  auto factor = cholesky(a);
  ASSERT_TRUE(factor.has_value());
  const std::vector<double> x = cholesky_solve(*factor, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(RidgeTest, RecoversExactLinearModel) {
  Rng rng(6);
  const std::size_t n = 200, d = 4;
  const Matrix x = random_matrix(n, d, rng);
  const std::vector<double> w_true{1.5, -2.0, 0.0, 3.0};
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) y[i] += x(i, j) * w_true[j];
  }
  const std::vector<double> w = ridge_least_squares(x, y, 0.0);
  for (std::size_t j = 0; j < d; ++j) EXPECT_NEAR(w[j], w_true[j], 1e-8);
}

TEST(RidgeTest, RegularizationShrinks) {
  Rng rng(7);
  const Matrix x = random_matrix(100, 3, rng);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) y[i] = 2.0 * x(i, 0);
  const std::vector<double> w0 = ridge_least_squares(x, y, 0.0);
  const std::vector<double> w_big = ridge_least_squares(x, y, 1e4);
  EXPECT_GT(std::abs(w0[0]), std::abs(w_big[0]));
}

TEST(RidgeTest, HandlesCollinearColumns) {
  // Second column is a copy of the first — singular normal equations.
  Rng rng(8);
  Matrix x(50, 2);
  std::vector<double> y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = x(i, 0);
    y[i] = 3.0 * x(i, 0);
  }
  const std::vector<double> w = ridge_least_squares(x, y, 0.0);
  // Any split across the two columns is valid; their sum must be ~3.
  EXPECT_NEAR(w[0] + w[1], 3.0, 1e-3);
}

TEST(RidgeTest, RejectsMismatchedSizes) {
  const Matrix x(3, 2);
  const std::vector<double> y(4, 0.0);
  EXPECT_THROW(ridge_least_squares(x, y, 0.0), ConfigError);
}

TEST(StandardizerTest, TransformsToZeroMeanUnitVariance) {
  Rng rng(9);
  Matrix x(500, 3);
  for (std::size_t i = 0; i < 500; ++i) {
    x(i, 0) = rng.normal(10.0, 2.0);
    x(i, 1) = rng.normal(-5.0, 0.1);
    x(i, 2) = rng.normal(0.0, 30.0);
  }
  Standardizer st;
  st.fit(x);
  const Matrix z = st.transform(x);
  for (std::size_t c = 0; c < 3; ++c) {
    RunningStats s;
    for (std::size_t r = 0; r < z.rows(); ++r) s.add(z(r, c));
    EXPECT_NEAR(s.mean(), 0.0, 1e-9);
    EXPECT_NEAR(s.stddev(), 1.0, 0.01);
  }
}

TEST(StandardizerTest, ConstantColumnIsShiftOnly) {
  Matrix x = Matrix::from_rows({{5.0}, {5.0}, {5.0}});
  Standardizer st;
  st.fit(x);
  const Matrix z = st.transform(x);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(z(r, 0), 0.0);
}

TEST(StandardizerTest, TransformRowMatchesMatrix) {
  Matrix x = Matrix::from_rows({{1.0, 10.0}, {3.0, 30.0}});
  Standardizer st;
  st.fit(x);
  std::vector<double> row{2.0, 20.0};
  st.transform_row(row);
  EXPECT_NEAR(row[0], 0.0, 1e-12);
  EXPECT_NEAR(row[1], 0.0, 1e-12);
}

TEST(StandardizerTest, UseBeforeFitThrows) {
  Standardizer st;
  std::vector<double> row{1.0};
  EXPECT_THROW(st.transform_row(row), ConfigError);
}

TEST(StandardizerTest, DimensionMismatchThrows) {
  Standardizer st;
  st.fit(Matrix::from_rows({{1.0, 2.0}}));
  EXPECT_THROW(st.transform(Matrix(1, 3)), ConfigError);
}

TEST(TargetScalerTest, RoundTrips) {
  TargetScaler sc;
  const std::vector<double> y{1.0, 2.0, 3.0, 4.0};
  sc.fit(y);
  for (double v : y) {
    EXPECT_NEAR(sc.inverse(sc.transform(v)), v, 1e-12);
  }
  EXPECT_NEAR(sc.transform(sc.mean()), 0.0, 1e-12);
}

// ---------------------------------------------------------------------
// GEMM equivalence matrix: the cache-blocked microkernel vs the naive
// ascending-k reference, over dimensions chosen to hit every tail path
// (scalar column tails, 1/2/3-row tails, multi-k-block splits at 256).
// The kernel's contract is exact: every output element accumulates its
// k-products in ascending-k order with separate mul+add, so results are
// bit-identical to the reference on every SIMD backend — unless the
// build enables FMA contraction (ESM_FMA=ON), where a documented
// relative bound of 1e-13 (k * half-ulp contraction error) applies.

void expect_gemm_exact(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  if (gemm_fma_enabled()) {
    for (std::size_t i = 0; i < got.rows(); ++i) {
      for (std::size_t j = 0; j < got.cols(); ++j) {
        const double tol = 1e-13 * std::max(1.0, std::abs(want(i, j)));
        EXPECT_NEAR(got(i, j), want(i, j), tol)
            << "at (" << i << "," << j << ")";
      }
    }
    return;
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)),
            0)
      << "microkernel output is not bit-identical to the naive reference";
}

TEST(GemmEquivalenceTest, MatchesNaiveReferenceOverTailAndPrimeDims) {
  Rng rng(1234);
  // Covers: 1 (degenerate), primes (3, 7, 13, 17, 31), SIMD-width
  // multiples and off-by-ones (8, 16, 33), and a micro-tile multiple (64).
  const std::size_t dims[] = {1, 3, 7, 8, 13, 16, 17, 31, 33, 64};
  for (std::size_t m : dims) {
    for (std::size_t k : dims) {
      for (std::size_t n : dims) {
        const Matrix a = random_matrix(m, k, rng);
        const Matrix b = random_matrix(k, n, rng);
        const Matrix want = naive_mul(a, b);
        Matrix out;
        gemm(a, b, out);
        expect_gemm_exact(out, want);
        if (HasFailure()) {
          FAIL() << "gemm mismatch at m=" << m << " k=" << k << " n=" << n;
        }
      }
    }
  }
}

TEST(GemmEquivalenceTest, TransposeVariantsMatchNaiveReference) {
  Rng rng(77);
  const std::size_t dims[] = {1, 2, 5, 8, 13, 17, 33, 64};
  for (std::size_t m : dims) {
    for (std::size_t k : dims) {
      for (std::size_t n : dims) {
        const Matrix a = random_matrix(m, k, rng);
        const Matrix b = random_matrix(k, n, rng);
        const Matrix want = naive_mul(a, b);
        Matrix out;
        gemm_at_b(a.transposed(), b, out);  // (k x m)^T * (k x n)
        expect_gemm_exact(out, want);
        gemm_a_bt(a, b.transposed(), out);  // (m x k) * (n x k)^T
        expect_gemm_exact(out, want);
        if (HasFailure()) {
          FAIL() << "variant mismatch at m=" << m << " k=" << k
                 << " n=" << n;
        }
      }
    }
  }
}

TEST(GemmEquivalenceTest, MultiKBlockSplitIsExact) {
  // k > 256 forces the store-mode first block plus accumulate-mode later
  // blocks; the carried partial sums must reproduce single-pass rounding.
  Rng rng(99);
  const Matrix a = random_matrix(5, 1031, rng);  // prime k, two tail rows
  const Matrix b = random_matrix(1031, 19, rng);
  Matrix out;
  gemm(a, b, out);
  expect_gemm_exact(out, naive_mul(a, b));
}

TEST(GemmEquivalenceTest, ColumnTailRowInterleaveIsExact) {
  // The column tail (n % micro-tile width, all of n when n is narrower)
  // interleaves 8 rows, then a 4-, 2- and 1-row remainder: m = 1..9 hits
  // every remainder and one full group plus a row. n = 1 is the MLP output
  // layer, 36 the FCC input width; k = 300 adds an accumulate-mode k-block
  // behind the store-mode one.
  Rng rng(4242);
  const std::size_t ns[] = {1, 4, 15, 17, 36};
  const std::size_t ks[] = {7, 300};
  for (std::size_t m = 1; m <= 9; ++m) {
    for (std::size_t n : ns) {
      for (std::size_t k : ks) {
        const Matrix a = random_matrix(m, k, rng);
        const Matrix b = random_matrix(k, n, rng);
        const Matrix want = naive_mul(a, b);
        Matrix out;
        gemm(a, b, out);
        expect_gemm_exact(out, want);
        gemm_at_b(a.transposed(), b, out);
        expect_gemm_exact(out, want);
        gemm_a_bt(a, b.transposed(), out);
        expect_gemm_exact(out, want);
        if (HasFailure()) {
          FAIL() << "tail mismatch at m=" << m << " k=" << k << " n=" << n;
        }
      }
    }
  }
}

TEST(GemmEquivalenceTest, ReusedOutputIsOverwrittenCompletely) {
  // reshape() keeps stale storage; the store-mode first k-block must
  // define every output element regardless of previous contents.
  Rng rng(7);
  Matrix out;
  const Matrix big_a = random_matrix(32, 8, rng);
  const Matrix big_b = random_matrix(8, 32, rng);
  gemm(big_a, big_b, out);
  const Matrix a = random_matrix(9, 5, rng);
  const Matrix b = random_matrix(5, 7, rng);
  gemm(a, b, out);
  expect_gemm_exact(out, naive_mul(a, b));
}

TEST(GemmEquivalenceTest, EmptyReductionYieldsZeros) {
  const Matrix a(3, 0);
  const Matrix b(0, 4);
  Matrix out(1, 1, 42.0);
  gemm(a, b, out);
  ASSERT_EQ(out.rows(), 3u);
  ASSERT_EQ(out.cols(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], 0.0);
  }
}

TEST(GemmEquivalenceTest, OutputAliasingAnInputThrows) {
  Matrix a(4, 4);
  Matrix b(4, 4);
  EXPECT_THROW(gemm(a, b, a), LogicError);
  EXPECT_THROW(gemm_at_b(a, b, b), LogicError);
  EXPECT_THROW(gemm_a_bt(a, b, a), LogicError);
}

TEST(GemmBackendTest, IntrospectionIsConsistent) {
  const std::string backend = gemm_backend();
  EXPECT_TRUE(backend == "avx512" || backend == "avx2" ||
              backend == "simd128" || backend == "scalar")
      << backend;
  EXPECT_GE(gemm_simd_width(), 1u);
  EXPECT_EQ(gemm_simd_width() == 1, backend == "scalar");
}

TEST(MatrixTest, ReshapeReusesCapacityAndKeepsShape) {
  Matrix m(8, 8);
  m.reshape(3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.size(), 15u);
  m.reshape(8, 8);
  EXPECT_EQ(m.size(), 64u);
}

TEST(TargetScalerTest, ConstantTargetsScaleOne) {
  TargetScaler sc;
  sc.fit(std::vector<double>{7.0, 7.0});
  EXPECT_DOUBLE_EQ(sc.scale(), 1.0);
  EXPECT_DOUBLE_EQ(sc.transform(8.0), 1.0);
}

}  // namespace
}  // namespace esm
