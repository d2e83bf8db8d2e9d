// Pins the allocation-free hot paths. Inference: once a thread's workspace
// is warm, MlpSurrogate::predict_all (the fused encode->standardize->
// batched-GEMM path) performs a constant number of heap allocations
// regardless of batch size (no per-arch allocations), while staying
// bit-identical to per-arch predict_ms. Training: once its workspace is
// warm, Mlp::train_batch allocates nothing.
//
// The whole-program operator new replacement below counts allocations, so
// this binary stays out of the sanitizer tiers in scripts/ci.sh (ASan wants
// its own allocator) and does its own counting on the plain build.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/parallel.hpp"
#include "linalg/matrix.hpp"
#include "common/rng.hpp"
#include "encoding/encoder.hpp"
#include "encoding/encoders.hpp"
#include "ml/mlp.hpp"
#include "nets/sampler.hpp"
#include "surrogate/mlp_surrogate.hpp"

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

// Replacement allocation functions must live at global scope. new[] is not
// replaced separately: the default operator new[] forwards here.
void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace esm {
namespace {

template <typename F>
std::uint64_t allocs_during(F&& f) {
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  f();
  return g_new_calls.load(std::memory_order_relaxed) - before;
}

TEST(FastPathTest, PredictAllAllocationCountIsBatchSizeIndependent) {
  // Serial execution keeps the count deterministic (no pool hand-off).
  set_thread_count(1);

  const SupernetSpec spec = resnet_spec();
  TrainConfig train;
  train.epochs = 30;
  train.batch_size = 16;
  MlpSurrogate surrogate(make_encoder(EncodingKind::kFcc, spec), train, 123);

  Rng rng(9);
  RandomSampler sampler(spec);
  const std::vector<ArchConfig> train_archs = sampler.sample_n(48, rng);
  std::vector<double> latencies;
  for (const ArchConfig& arch : train_archs) {
    latencies.push_back(1.0 + 0.05 * static_cast<double>(arch.total_blocks()));
  }
  surrogate.fit(train_archs, latencies);

  const std::vector<ArchConfig> small_batch = sampler.sample_n(64, rng);
  const std::vector<ArchConfig> large_batch = sampler.sample_n(256, rng);

  // Warm the thread-local workspace to the largest batch we will serve.
  (void)surrogate.predict_all(large_batch);

  std::vector<double> small_out, large_out;
  const std::uint64_t small_allocs =
      allocs_during([&] { small_out = surrogate.predict_all(small_batch); });
  const std::uint64_t large_allocs =
      allocs_during([&] { large_out = surrogate.predict_all(large_batch); });

  // Steady state allocates only the result vector (plus at most a couple of
  // fixed-size incidentals): the count must not grow with the batch — 4x the
  // architectures, same number of allocations.
  EXPECT_EQ(small_allocs, large_allocs);
  EXPECT_LE(large_allocs, 8u);

  // And the fused path stays bit-identical to the scalar per-arch path —
  // except under ESM_FMA=ON, where contraction may round mul+add chains
  // differently between the batched and single-row shapes; there the two
  // paths must still agree to a tight relative tolerance.
  ASSERT_EQ(large_out.size(), large_batch.size());
  for (std::size_t i = 0; i < large_batch.size(); ++i) {
    const double scalar = surrogate.predict_ms(large_batch[i]);
    if (gemm_fma_enabled()) {
      const double tol = 1e-12 * std::max(1.0, std::abs(scalar));
      EXPECT_NEAR(large_out[i], scalar, tol) << "arch " << i;
    } else {
      EXPECT_EQ(large_out[i], scalar) << "arch " << i;
    }
  }
}

TEST(FastPathTest, WarmTrainBatchAllocatesNothing) {
  // The training step keeps its activations, deltas and gradients in the
  // caller's workspace and reads the batch in place: once one step has
  // warmed the workspace, further steps at the same batch size allocate
  // nothing, for the paper predictor and for a batch of one.
  set_thread_count(1);
  for (const std::size_t batch : {std::size_t{256}, std::size_t{1}}) {
    Rng rng(17);
    Mlp mlp = Mlp::paper_predictor(36, rng);
    Matrix x(batch, 36);
    std::vector<double> y(batch);
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t c = 0; c < 36; ++c) x(r, c) = rng.uniform(-1.0, 1.0);
      y[r] = rng.normal();
    }
    const AdamConfig adam;
    Mlp::TrainWorkspace ws;
    (void)mlp.train_batch(x, y, adam, 0.0, ws);
    const std::uint64_t allocs = allocs_during([&] {
      for (int step = 0; step < 5; ++step) {
        (void)mlp.train_batch(x, y, adam, 0.0, ws);
      }
    });
    EXPECT_EQ(allocs, 0u) << "batch " << batch;
  }
}

}  // namespace
}  // namespace esm
