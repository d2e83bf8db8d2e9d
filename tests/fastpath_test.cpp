// Pins the allocation-free hot paths. Inference: once a thread's workspace
// is warm, MlpSurrogate::predict_all (the fused encode->standardize->
// batched-GEMM path) performs a constant number of heap allocations
// regardless of batch size (no per-arch allocations), while staying
// bit-identical to per-arch predict_ms. Training: once its workspace is
// warm, Mlp::train_batch allocates nothing. Serving: a warm
// PredictionServer::handle_request for an esm2 predict allocates an exact,
// itemized count on a cache hit and on a miss; parsing the arch, building
// its cache key, the cache lookup and the latency formatting add none.
// The same counter injects failures: when the k-th allocation inside a
// warm handle_request throws std::bad_alloc, for every k, the request is
// still answered exactly once.
//
// The whole-program operator new replacement below counts allocations, so
// this binary stays out of the sanitizer tiers in scripts/ci.sh (ASan wants
// its own allocator) and does its own counting on the plain build.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
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
// Fault injection on the calling thread: while t_fail_at > 0, its
// t_fail_at-th allocation (counted in t_seen) throws std::bad_alloc.
thread_local std::uint64_t t_fail_at = 0;
thread_local std::uint64_t t_seen = 0;

// Out of line and cold, so operator new stays small enough to inline:
// an opaque operator new makes GCC flag the inlined delete's free().
[[gnu::noinline, gnu::cold]] void count_toward_failure() {
  if (++t_seen == t_fail_at) throw std::bad_alloc();
}
}  // namespace

// Replacement allocation functions must live at global scope. new[] is not
// replaced separately: the default operator new[] forwards here.
void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (t_fail_at != 0) count_toward_failure();
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

/// One esm2 request as the event loop hands it to the server: the frame
/// decoded, its verb named, its payload moved out of the frame.
serve::ParsedRequest esm2_request(std::uint64_t id, serve::FrameVerb verb,
                                  const std::string& payload,
                                  std::size_t& wire_bytes) {
  std::string buffer = serve::encode_request(id, verb, payload);
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

/// A server over a small trained MLP with a one-shard, 8-entry cache:
/// once full, every miss inserts one entry and evicts one, so no rehash
/// lands in a measured window.
serve::ServeConfig small_served_config() {
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
  serve::ServeConfig config;
  config.artifact_path = testing::TempDir() + "/fastpath_served.esm";
  save_surrogate(surrogate, config.artifact_path);
  config.cache_capacity = 8;
  config.cache_shards = 1;
  return config;
}

TEST(FastPathTest, ServedPredictAllocatesOnlyItsReplyAndCompletion) {
  set_thread_count(1);
  const SupernetSpec spec = resnet_spec();
  serve::PredictionServer server(small_served_config());

  std::uint64_t next_id = 1;
  const auto serve_one = [&](const std::string& payload) {
    std::size_t wire_bytes = 0;
    const std::uint64_t id = next_id++;
    const serve::ParsedRequest request =
        esm2_request(id, serve::FrameVerb::predict, payload, wire_bytes);
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

/// Counts every reply a completion delivers, so a request answered twice
/// (or never) shows.
struct CountingSlot {
  serve::Reply reply;
  std::atomic<int> replies{0};
};

serve::ReplyCallback counting_completion(std::shared_ptr<CountingSlot> slot) {
  return [slot = std::move(slot)](serve::Reply&& reply) {
    slot->reply = std::move(reply);
    slot->replies.fetch_add(1, std::memory_order_release);
  };
}

/// Waits up to 10 s for a first reply; false if none came.
bool await_reply(const CountingSlot& slot) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (slot.replies.load(std::memory_order_acquire) == 0) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(FastPathTest, EveryRequestIsAnsweredOnceWhenAnAllocationFails) {
  set_thread_count(1);
  serve::PredictionServer server(small_served_config());
  std::uint64_t next_id = 1;
  // Distinct archs, none served before, so each one misses the cache.
  int next_fresh = 0;
  const auto fresh_arch = [&] {
    const int n = next_fresh++;
    return "default " + std::to_string(1 + n % 7) + "," +
           std::to_string(1 + n / 7 % 7) + "," +
           std::to_string(1 + n / 49 % 7) + ",5";
  };
  // Serves one request with the k-th allocation on this thread inside
  // handle_request failing (k = 0: none; the batcher thread's own
  // allocations never fail), waits for its reply, then for the batcher to
  // drain past it (a later miss answered means every earlier completion
  // fired). Returns whether the injection fired.
  const auto serve_failing = [&](serve::FrameVerb verb,
                                 const std::string& payload,
                                 std::uint64_t k, const std::string& what) {
    std::size_t wire_bytes = 0;
    const serve::ParsedRequest request =
        esm2_request(next_id++, verb, payload, wire_bytes);
    const auto slot = std::make_shared<CountingSlot>();
    serve::ReplyCallback done = counting_completion(slot);
    t_seen = 0;
    t_fail_at = k;
    server.handle_request(request, wire_bytes, std::move(done));
    t_fail_at = 0;
    const bool fired = k != 0 && t_seen >= k;
    if (!await_reply(*slot)) {
      ADD_FAILURE() << what << ", allocation " << k << ": never answered";
      return false;
    }
    const auto barrier = std::make_shared<CountingSlot>();
    const serve::ParsedRequest drain = esm2_request(
        next_id++, serve::FrameVerb::predict, fresh_arch(), wire_bytes);
    server.handle_request(drain, wire_bytes, counting_completion(barrier));
    EXPECT_TRUE(await_reply(*barrier));
    EXPECT_EQ(slot->replies.load(), 1) << what << ", allocation " << k;
    EXPECT_TRUE(slot->reply.ok ||
                slot->reply.code == serve::ErrorCode::server_error)
        << what << ", allocation " << k << ": " << slot->reply.payload;
    if (!fired) {
      EXPECT_TRUE(slot->reply.ok) << what << ": " << slot->reply.payload;
    }
    return fired;
  };
  const std::string hit = "default 3:k5,5:k7e0.667,2,7:k3e1";
  // Warm-up: the batcher's workspace, the pending queue, the histogram.
  for (int i = 0; i < 16; ++i) {
    serve_failing(serve::FrameVerb::predict, fresh_arch(), 0, "warm-up");
  }
  // Every k up to the request's allocation count on this thread; the
  // first k that no allocation reaches ends the sweep.
  const auto sweep = [&](serve::FrameVerb verb, const auto& payload,
                         const std::string& what) {
    std::uint64_t k = 1;
    for (; k < 64; ++k) {
      serve_failing(serve::FrameVerb::predict, hit, 0, "re-warm");
      if (!serve_failing(verb, payload(), k, what)) break;
    }
    EXPECT_GT(k, 1u) << what << " made no allocation to fail";
    EXPECT_LT(k, 64u) << what;
  };
  sweep(serve::FrameVerb::predict, [&] { return hit; }, "cache hit");
  sweep(serve::FrameVerb::predict, fresh_arch, "cache miss");
  sweep(serve::FrameVerb::predict_batch,
        [&] {
          return hit + ";" + fresh_arch().substr(8) + ";" +
                 fresh_arch().substr(8);
        },
        "mixed predict_batch");
}

}  // namespace
}  // namespace esm
