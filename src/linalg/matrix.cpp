#include "linalg/matrix.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/error.hpp"

namespace esm {

namespace {

// ---------------------------------------------------------------------------
// SIMD backend selection (see DESIGN.md §6g).
//
// One portable microkernel implementation covers every backend: the vector
// type is a GCC/Clang generic vector whose width is picked from the ISA the
// file is compiled for (CMake's ESM_SIMD option sets per-file flags on this
// translation unit only). ESM_GEMM_FORCE_SCALAR — or a compiler without the
// vector extension — degrades `vd` to plain double, which compiles the same
// code as the scalar fallback.
#if defined(ESM_GEMM_FORCE_SCALAR) || !(defined(__GNUC__) || defined(__clang__))
constexpr std::size_t kVecLanes = 1;
using vd = double;
constexpr const char* kGemmBackend = "scalar";
#elif defined(__AVX512F__)
constexpr std::size_t kVecLanes = 8;
typedef double vd __attribute__((vector_size(64)));
constexpr const char* kGemmBackend = "avx512";
#elif defined(__AVX__)
constexpr std::size_t kVecLanes = 4;
typedef double vd __attribute__((vector_size(32)));
constexpr const char* kGemmBackend = "avx2";
#else
// 128-bit generic vectors: SSE2 on x86-64, NEON on aarch64, scalar pairs
// anywhere else — all lowered by the compiler, no intrinsics needed.
constexpr std::size_t kVecLanes = 2;
typedef double vd __attribute__((vector_size(16)));
constexpr const char* kGemmBackend = "simd128";
#endif

// Unaligned load/store through memcpy: the canonical strict-aliasing- and
// alignment-safe idiom, compiled to single vector moves.
inline vd load_vd(const double* p) {
  vd v;
  std::memcpy(&v, p, sizeof(vd));
  return v;
}

inline void store_vd(double* p, vd v) { std::memcpy(p, &v, sizeof(vd)); }

// ---------------------------------------------------------------------------
// Blocking parameters.
//
// Register micro-tile: kMicroRows output rows x kMicroVecs vectors of output
// columns, so kMicroRows * kMicroVecs accumulators stay in registers across
// the whole k-block (4 x 2 fits every backend's register file alongside the
// kMicroVecs b-row vectors).
constexpr std::size_t kMicroRows = 4;
constexpr std::size_t kMicroVecs = 2;
constexpr std::size_t kMicroCols = kMicroVecs * kVecLanes;

// k-block: a kBlockK x kMicroCols panel of b (up to 16 KiB) stays in L1
// while an i-sweep of micro-tiles runs over it. Blocking only regroups the
// traversal; each output element still sees ascending k (the partial tile
// sums are carried through the output itself), so values are unchanged.
constexpr std::size_t kBlockK = 256;

// ---------------------------------------------------------------------------
// The microkernel.
//
// AView generalizes the a-operand access so gemm and gemm_at_b share the
// kernel: the value feeding output row r at reduction index p lives at
// ptr[r * row_stride + p * k_stride]. gemm uses {lda, 1}; gemm_at_b reads a
// transposed in place with {1, lda}; gemm_a_bt pre-transposes b and then
// dispatches exactly like gemm.
struct AView {
  const double* ptr;
  std::size_t row_stride;
  std::size_t k_stride;
};

// One register tile: kRows output rows x kMicroCols output columns, over
// reduction indices [p0, p1). kAccumulate=false is the store-mode first
// k-block: accumulators start at +0.0 and the tile is stored without
// reading c, which both skips a round-trip through memory and makes the
// first block define the output (no zero-fill of `out` needed anywhere).
// Later k-blocks load the partial sums back and continue — the identical
// ascending-k, separate-mul-then-add sequence an element would see in a
// single pass, so blocking never changes rounding.
//
// Note the old kernels skipped a == 0.0 multiplies as a sparsity shortcut.
// Dropping the skip is bitwise-neutral on finite data: a partial sum that
// starts at +0.0 can never become -0.0 (x + (-x) rounds to +0.0), and
// adding ±0.0 to such a sum leaves every bit unchanged.
template <bool kAccumulate, std::size_t kRows>
inline void micro_tile(AView a, const double* b, std::size_t ldb, double* c,
                       std::size_t ldc, std::size_t i, std::size_t j,
                       std::size_t p0, std::size_t p1) {
  vd acc[kRows][kMicroVecs];
  for (std::size_t r = 0; r < kRows; ++r) {
    double* crow = c + (i + r) * ldc + j;
    for (std::size_t v = 0; v < kMicroVecs; ++v) {
      if constexpr (kAccumulate) {
        acc[r][v] = load_vd(crow + v * kVecLanes);
      } else {
        acc[r][v] = vd{};
      }
    }
  }
  const double* arow[kRows];
  for (std::size_t r = 0; r < kRows; ++r) {
    arow[r] = a.ptr + (i + r) * a.row_stride + p0 * a.k_stride;
  }
  const double* brow = b + p0 * ldb + j;
  for (std::size_t p = p0; p < p1; ++p) {
    vd bv[kMicroVecs];
    for (std::size_t v = 0; v < kMicroVecs; ++v) {
      bv[v] = load_vd(brow + v * kVecLanes);
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      const double av = *arow[r];
      arow[r] += a.k_stride;
      for (std::size_t v = 0; v < kMicroVecs; ++v) {
        acc[r][v] += av * bv[v];
      }
    }
    brow += ldb;
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    double* crow = c + (i + r) * ldc + j;
    for (std::size_t v = 0; v < kMicroVecs; ++v) {
      store_vd(crow + v * kVecLanes, acc[r][v]);
    }
  }
}

// Scalar column tail for the trailing n % kMicroCols output columns (all of
// them when n < kMicroCols, e.g. the MLP's n = 1 output layer). Each output
// element is one ascending-k chain of separate mul and add, so a lone chain
// runs at the add latency; kTailRows rows of one column are interleaved so
// that many independent chains are in flight at once. Rounding is that of
// the single-chain loop: interleaving only reorders *different* elements.
constexpr std::size_t kTailRows = 8;

template <bool kAccumulate, std::size_t kRows>
inline void tail_tile(AView a, const double* b, std::size_t ldb, double* c,
                      std::size_t ldc, std::size_t i, std::size_t j,
                      std::size_t p0, std::size_t p1) {
  double acc[kRows];
  for (std::size_t r = 0; r < kRows; ++r) {
    acc[r] = kAccumulate ? c[(i + r) * ldc + j] : 0.0;
  }
  const double* ap = a.ptr + i * a.row_stride + p0 * a.k_stride;
  const double* bp = b + p0 * ldb + j;
  for (std::size_t p = p0; p < p1; ++p) {
    const double bv = *bp;
    for (std::size_t r = 0; r < kRows; ++r) {
      acc[r] += ap[r * a.row_stride] * bv;
    }
    ap += a.k_stride;
    bp += ldb;
  }
  for (std::size_t r = 0; r < kRows; ++r) c[(i + r) * ldc + j] = acc[r];
}

template <bool kAccumulate>
void tail_cols(AView a, const double* b, std::size_t ldb, double* c,
               std::size_t ldc, std::size_t m0, std::size_t m1,
               std::size_t j0, std::size_t n, std::size_t p0,
               std::size_t p1) {
  for (std::size_t j = j0; j < n; ++j) {
    std::size_t i = m0;
    for (; i + kTailRows <= m1; i += kTailRows) {
      tail_tile<kAccumulate, kTailRows>(a, b, ldb, c, ldc, i, j, p0, p1);
    }
    // The remaining 0..7 rows as at most one 4-, one 2- and one 1-row tile.
    if ((m1 - i) & 4) {
      tail_tile<kAccumulate, 4>(a, b, ldb, c, ldc, i, j, p0, p1);
      i += 4;
    }
    if ((m1 - i) & 2) {
      tail_tile<kAccumulate, 2>(a, b, ldb, c, ldc, i, j, p0, p1);
      i += 2;
    }
    if ((m1 - i) & 1) {
      tail_tile<kAccumulate, 1>(a, b, ldb, c, ldc, i, j, p0, p1);
    }
  }
}

// One k-block over output rows [m0, m1) and all n columns: j-tiles outer so
// each b panel is swept by every micro-tile row before moving on.
template <bool kAccumulate>
void gemm_block(AView a, const double* b, std::size_t ldb, double* c,
                std::size_t ldc, std::size_t m0, std::size_t m1,
                std::size_t n, std::size_t p0, std::size_t p1) {
  const std::size_t j_end = n - n % kMicroCols;
  for (std::size_t j = 0; j < j_end; j += kMicroCols) {
    std::size_t i = m0;
    for (; i + kMicroRows <= m1; i += kMicroRows) {
      micro_tile<kAccumulate, kMicroRows>(a, b, ldb, c, ldc, i, j, p0, p1);
    }
    switch (m1 - i) {
      case 3: micro_tile<kAccumulate, 3>(a, b, ldb, c, ldc, i, j, p0, p1); break;
      case 2: micro_tile<kAccumulate, 2>(a, b, ldb, c, ldc, i, j, p0, p1); break;
      case 1: micro_tile<kAccumulate, 1>(a, b, ldb, c, ldc, i, j, p0, p1); break;
      default: break;
    }
  }
  if (j_end < n) {
    tail_cols<kAccumulate>(a, b, ldb, c, ldc, m0, m1, j_end, n, p0, p1);
  }
}

// Full multiply of output rows [m0, m1): store-mode first k-block defines
// the output, accumulate-mode blocks fold in the rest.
void gemm_band(AView a, const double* b, std::size_t ldb, double* c,
               std::size_t ldc, std::size_t m0, std::size_t m1,
               std::size_t n, std::size_t k) {
  gemm_block<false>(a, b, ldb, c, ldc, m0, m1, n, 0, std::min(k, kBlockK));
  for (std::size_t p0 = kBlockK; p0 < k; p0 += kBlockK) {
    gemm_block<true>(a, b, ldb, c, ldc, m0, m1, n, p0,
                     std::min(k, p0 + kBlockK));
  }
}

// Shared driver: sizes the output, then runs the whole multiply as one
// band on the caller.
void gemm_dispatch(AView a, const double* b, std::size_t ldb, Matrix& out,
                   std::size_t m, std::size_t n, std::size_t k) {
  out.reshape(m, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    out.fill(0.0);
    return;
  }
  gemm_band(a, b, ldb, out.data(), n, 0, m, n, k);
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  ESM_REQUIRE(!rows.empty(), "from_rows requires at least one row");
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    ESM_REQUIRE(rows[r].size() == m.cols(), "ragged rows in from_rows");
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // vector::resize reuses capacity on shrink and on regrow-within-capacity,
  // so a warmed matrix cycles through shapes without touching the heap.
  data_.resize(rows * cols);
}

void Matrix::fill(double value) {
  for (double& x : data_) x = value;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

void gemm(const Matrix& a, const Matrix& b, Matrix& out) {
  ESM_CHECK(a.cols() == b.rows(), "gemm shape mismatch: " << a.cols()
                                                          << " vs "
                                                          << b.rows());
  ESM_CHECK(&out != &a && &out != &b, "gemm output must not alias an input");
  gemm_dispatch({a.data(), a.cols(), 1}, b.data(), b.cols(), out, a.rows(),
                b.cols(), a.cols());
}

void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
  ESM_CHECK(a.rows() == b.rows(), "gemm_at_b shape mismatch");
  ESM_CHECK(&out != &a && &out != &b,
            "gemm_at_b output must not alias an input");
  // a is k x m read transposed in place: output row i walks a column of a
  // (k_stride = lda). Cache-hostile for huge m, but a^T*b only feeds
  // gradient shapes (m, n <= batch), where the k-block keeps it resident.
  gemm_dispatch({a.data(), 1, a.cols()}, b.data(), b.cols(), out, a.cols(),
                b.cols(), a.rows());
}

void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  ESM_CHECK(a.cols() == b.cols(), "gemm_a_bt shape mismatch");
  ESM_CHECK(&out != &a && &out != &b,
            "gemm_a_bt output must not alias an input");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  // Transpose b once into a per-thread scratch panel and run the plain
  // kernel: O(n*k) copies buy back the contiguous, vectorizable b-rows the
  // dot-product formulation lacks. This is the training step's delta
  // multiply (delta * w^T, MLP and GCN); inference stores weights the way
  // gemm reads them and never comes here. The scratch is sized by the
  // weights, not the batch, so a warm training step allocates nothing.
  static thread_local Matrix bt_scratch;
  bt_scratch.reshape(k, n);
  for (std::size_t p = 0; p < k; ++p) {
    double* dst = bt_scratch.data() + p * n;
    const double* src = b.data() + p;
    for (std::size_t j = 0; j < n; ++j) {
      dst[j] = src[j * k];
    }
  }
  gemm_dispatch({a.data(), k, 1}, bt_scratch.data(), n, out, m, n, k);
}

const char* gemm_backend() { return kGemmBackend; }

std::size_t gemm_simd_width() { return kVecLanes; }

bool gemm_fma_enabled() {
#if defined(ESM_GEMM_FMA)
  return true;
#else
  return false;
#endif
}

double gemm_peak_gflops(double seconds) {
  // 12 independent mul-then-add chains: enough in-flight operations to
  // saturate two vector FP issue ports at mul+add latency, few enough to
  // stay in registers on every backend. Compiled in this translation unit,
  // so the vector width and contraction rules match the microkernel — with
  // ESM_FMA on, the chains contract to FMAs exactly like the kernel would.
  constexpr std::size_t kChains = 12;
  constexpr std::size_t kReps = 4096;
  vd acc[kChains];
  for (std::size_t ch = 0; ch < kChains; ++ch) {
    acc[ch] = vd{} + (1.0 + 1e-3 * static_cast<double>(ch));
  }
  const vd s = vd{} + 0.999;  // decay keeps the values bounded near 1
  const vd d = vd{} + 1e-3;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  std::size_t iters = 0;
  do {
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      for (std::size_t ch = 0; ch < kChains; ++ch) {
        acc[ch] = acc[ch] * s + d;
      }
    }
    iters += kReps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < seconds);
  double sink = 0.0;
  for (std::size_t ch = 0; ch < kChains; ++ch) {
    const double* lanes = reinterpret_cast<const double*>(&acc[ch]);
    for (std::size_t l = 0; l < kVecLanes; ++l) sink += lanes[l];
  }
  volatile double guard = sink;
  (void)guard;
  const double flops = 2.0 * static_cast<double>(kVecLanes) *
                       static_cast<double>(kChains) *
                       static_cast<double>(iters);
  return flops / elapsed / 1e9;
}

}  // namespace esm
