// Pins the allocation-free hot paths. Inference: once a thread's workspace
// is warm, MlpSurrogate::predict_all (the fused encode->standardize->
// batched-GEMM path) performs a constant number of heap allocations
// regardless of batch size (no per-arch allocations), while staying
// bit-identical to per-arch predict_ms. Training: once its workspace is
// warm, Mlp::train_batch allocates nothing. Serving: a warm
// PredictionServer::handle_request for an esm2 predict allocates an exact,
// itemized count on a cache hit and on a miss; parsing the arch, building
// its cache key, the cache lookup and the latency formatting add none.
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
#include <iterator>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "linalg/matrix.hpp"
#include "common/rng.hpp"
#include "encoding/encoder.hpp"
#include "encoding/encoders.hpp"
#include "ml/mlp.hpp"
#include "nets/sampler.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "surrogate/mlp_surrogate.hpp"
#include "surrogate/registry.hpp"

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

/// One esm2 predict as the event loop hands it to the server: the frame
/// decoded, its verb named, its payload moved out of the frame.
serve::ParsedRequest esm2_predict(std::uint64_t id, const std::string& payload,
                                  std::size_t& wire_bytes) {
  std::string buffer =
      serve::encode_request(id, serve::FrameVerb::predict, payload);
  serve::Frame frame;
  std::string error;
  EXPECT_EQ(serve::parse_frame(buffer, frame, error, 1 << 20),
            serve::FrameParse::ok)
      << error;
  serve::ParsedRequest request;
  request.verb = std::string(serve::frame_verb_name(frame.verb));
  request.payload = std::move(frame.payload);
  wire_bytes = serve::kFrameHeaderBytes + request.payload.size();
  return request;
}

/// Where a completion lands; `done` flips once the reply is in.
struct ReplySlot {
  serve::Reply reply;
  std::atomic<bool> done{false};
};

/// A completion shaped like the event loop's: its captures outgrow
/// std::function's inline buffer, so wrapping it allocates once.
serve::ReplyCallback completion(ReplySlot& slot, std::uint64_t request_id) {
  return [slot = &slot, conn_id = std::uint64_t{7}, seq = request_id,
          request_id, start = std::chrono::steady_clock::now()](
             serve::Reply&& reply) {
    (void)conn_id;
    (void)seq;
    (void)request_id;
    (void)start;
    slot->reply = std::move(reply);
    slot->done.store(true, std::memory_order_release);
  };
}

TEST(FastPathTest, ServedPredictAllocatesOnlyItsReplyAndCompletion) {
  set_thread_count(1);
  const SupernetSpec spec = resnet_spec();
  TrainConfig train;
  train.epochs = 5;
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
  const std::string artifact = testing::TempDir() + "/fastpath_served.esm";
  save_surrogate(surrogate, artifact);

  // A full one-shard cache: every miss inserts one entry and evicts one,
  // so no rehash lands in a measured window.
  serve::ServeConfig config;
  config.artifact_path = artifact;
  config.cache_capacity = 8;
  config.cache_shards = 1;
  serve::PredictionServer server(config);

  std::uint64_t next_id = 1;
  const auto serve_one = [&](const std::string& payload) {
    std::size_t wire_bytes = 0;
    const std::uint64_t id = next_id++;
    const serve::ParsedRequest request = esm2_predict(id, payload, wire_bytes);
    ReplySlot slot;
    const std::uint64_t allocs = allocs_during([&] {
      server.handle_request(request, wire_bytes, completion(slot, id));
      while (!slot.done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    EXPECT_TRUE(slot.reply.ok) << slot.reply.payload;
    // A 17-digit latency outgrows std::string's inline buffer.
    EXPECT_GT(slot.reply.payload.size(), 15u) << slot.reply.payload;
    return allocs;
  };
  const char* const archs[] = {
      "3:k5,5:k7e0.667,2,7:k3e1", "1,2,3,4", "7,7,7,7", "2:k7e1,2,2,2",
      "4:k3e0.5,4,4,4", "5,1,5,1", "6:k5e1,6,6,6", "1:k7,1:k7,1:k7,1:k7",
      "2,4,6,7", "7,5,3,1", "3,3,3,3", "6,2,6,2", "1,7,1,7"};
  const auto routed = [](const char* arch) {
    return std::string("default ") + arch;
  };
  // Warm-up: fills the cache, the batcher's thread-local workspace, the
  // pending queue and the metrics histogram.
  for (const char* arch : archs) serve_one(routed(arch));

  // A hit allocates exactly twice, both outside the request path proper:
  //   1 the completion std::function (the event loop's capture size)
  //   1 the reply payload, the 17-digit latency
  // Routing, parsing the arch, its packed key, the cache lookup and the
  // formatting into the payload allocate nothing.
  EXPECT_EQ(serve_one(routed(archs[std::size(archs) - 1])), 2u);

  // Five misses in a row, each waited for, so the pending deque crosses
  // exactly one of its 5-entry blocks. Per miss:
  //   1 the completion std::function
  //   5 the ArchConfig re-parsed from the request for the batcher (units
  //     vector plus one block vector per unit)
  //   1 the pending entry's std::function (its capture holds the key,
  //     the cache and the completion)
  //   1 the batcher's drained vector, 1 its expiry flags, 1 its group
  //     list, 1 the group's index vector
  //   1 the batch vector plus 5 for copying the ArchConfig into it
  //   predict_all at batch 1, warm (its result vector among them)
  //   2 the cache insert (LRU node and index node; the evicted pair frees)
  //   1 the reply payload
  // = 20 + predict_all per miss, plus 1 deque block per 5 misses.
  const std::vector<ArchConfig> one = {
      serve::parse_arch_request(spec, archs[0])};
  (void)server.model()->predict_all(one);
  const std::uint64_t predict_allocs =
      allocs_during([&] { (void)server.model()->predict_all(one); });
  std::uint64_t miss_allocs = 0;
  for (int i = 0; i < 5; ++i) miss_allocs += serve_one(routed(archs[i]));
  EXPECT_EQ(miss_allocs, 5u * (20u + predict_allocs) + 1u);
  EXPECT_EQ(serve_one(routed(archs[0])), 2u);
}

}  // namespace
}  // namespace esm
