// Pins the allocation-free hot paths. Inference: once a thread's workspace
// is warm, MlpSurrogate::predict_all (the fused encode->standardize->
// batched-GEMM path) performs a constant number of heap allocations
// regardless of batch size (no per-arch allocations), while staying
// bit-identical to per-arch predict_ms. Training: once its workspace is
// warm, Mlp::train_batch allocates nothing. Serving: a warm
// PredictionServer::handle_request + flush() for an esm2 predict allocates
// an exact, itemized count on a cache hit and on a miss; parsing the arch,
// building its cache key, the cache lookup and the latency formatting add
// none. The same counter injects failures: when the k-th allocation inside
// a warm handle_request or flush() throws std::bad_alloc, for every k, the
// request is still answered exactly once, and a client of the event loop
// still hears back when the k-th allocation of the reactor's round fails.
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

#include "linalg/matrix.hpp"
#include "common/rng.hpp"
#include "encoding/encoder.hpp"
#include "encoding/encoders.hpp"
#include "ml/mlp.hpp"
#include "nets/sampler.hpp"
#include "serve/client.hpp"
#include "serve/event_loop.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
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
  // Every copy of this binary writes the same bytes here; an atomic
  // replace keeps a concurrent copy from loading a half-written file.
  save_surrogate_atomic(surrogate, config.artifact_path);
  config.cache_capacity = 8;
  config.cache_shards = 1;
  return config;
}

TEST(FastPathTest, ServedPredictAllocatesOnlyItsReplyAndCompletion) {
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
      EXPECT_FALSE(server.flush());
    });
    EXPECT_TRUE(slot.done.load(std::memory_order_acquire));
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
  // Warm-up: fills the cache, predict_all's thread-local workspace, the
  // pending queue, flush()'s round and batch vectors and the metrics
  // histogram.
  for (const char* arch : archs) serve_one(routed(arch));

  // A hit allocates exactly twice, both outside the request path proper:
  //   1 the completion std::function (the event loop's capture size)
  //   1 the reply payload, the 17-digit latency
  // Routing, parsing the arch, its packed key, the cache lookup and the
  // formatting into the payload allocate nothing, and flush() with nothing
  // queued neither allocates nor locks.
  EXPECT_EQ(serve_one(routed(archs[std::size(archs) - 1])), 2u);

  // Five misses in a row, each flushed, so the pending deque crosses
  // exactly one of its 4-entry blocks. Per miss:
  //   1 the completion std::function
  //   5 the ArchConfig parsed from the request for flush() (units vector
  //     plus one block vector per unit)
  //   1 the line's values, 1 its miss list (the miss holds the key, which
  //     fits std::string's inline buffer, and the ArchConfig)
  //   0 flush()'s round and batch vectors, warm (the ArchConfig moves into
  //     the batch, uncopied)
  //   predict_all at batch 1, warm (its result vector among them)
  //   2 the cache insert (LRU node and index node; the evicted pair frees)
  //   1 the reply payload
  // = 11 + predict_all per miss, plus 1 deque block per 4 misses.
  const std::vector<ArchConfig> one = {
      serve::parse_arch_request(spec, archs[0])};
  (void)server.model()->predict_all(one);
  const std::uint64_t predict_allocs =
      allocs_during([&] { (void)server.model()->predict_all(one); });
  std::uint64_t miss_allocs = 0;
  for (int i = 0; i < 5; ++i) miss_allocs += serve_one(routed(archs[i]));
  EXPECT_EQ(miss_allocs, 5u * (11u + predict_allocs) + 1u);
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
  // Errors counted on the "default" section, where every line here routes.
  const auto default_errors = [](const serve::MetricsSnapshot& snap) {
    for (const auto& [section, counters] : snap.per_model) {
      if (section == "default") return counters.errors;
    }
    return std::uint64_t{0};
  };
  // Serves one request with the k-th allocation inside handle_request and
  // the flush() that prices it failing (k = 0: none), checks its one
  // reply, then serves a later miss, which is answered only after every
  // earlier line. A failed line counts one error, on the model it routed
  // to, wherever the allocation failed. Returns whether the injection
  // fired.
  const auto serve_failing = [&](serve::FrameVerb verb,
                                 const std::string& payload,
                                 std::uint64_t k, const std::string& what) {
    std::size_t wire_bytes = 0;
    const serve::ParsedRequest request =
        esm2_request(next_id++, verb, payload, wire_bytes);
    const auto slot = std::make_shared<CountingSlot>();
    serve::ReplyCallback done = counting_completion(slot);
    const serve::MetricsSnapshot before = server.metrics();
    t_seen = 0;
    t_fail_at = k;
    server.handle_request(request, wire_bytes, std::move(done));
    while (server.flush()) {
    }
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
    EXPECT_FALSE(server.flush());
    EXPECT_TRUE(await_reply(*barrier));
    EXPECT_EQ(slot->replies.load(), 1) << what << ", allocation " << k;
    EXPECT_TRUE(slot->reply.ok ||
                slot->reply.code == serve::ErrorCode::server_error)
        << what << ", allocation " << k << ": " << slot->reply.payload;
    if (!fired) {
      EXPECT_TRUE(slot->reply.ok) << what << ": " << slot->reply.payload;
    }
    const serve::MetricsSnapshot after = server.metrics();
    const std::uint64_t failed = slot->reply.ok ? 0 : 1;
    EXPECT_EQ(after.errors - before.errors, failed)
        << what << ", allocation " << k;
    EXPECT_EQ(default_errors(after) - default_errors(before), failed)
        << what << ", allocation " << k;
    return fired;
  };
  const std::string hit = "default 3:k5,5:k7e0.667,2,7:k3e1";
  // Warm-up: predict_all's workspace, the pending queue, flush()'s
  // vectors, the histogram.
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

TEST(FastPathTest, EveryRoundLineIsAnsweredOnceWhenAFlushAllocationFails) {
  // The same sweep over a round of several lines: two misses and a mixed
  // predict_batch are queued, then the k-th allocation of the flush()
  // that prices them fails. Wherever the failure lands (the round's
  // bookkeeping, the batch, predict_all, a cache insert, a reply), every
  // line is answered exactly once.
  serve::PredictionServer server(small_served_config());
  std::uint64_t next_id = 1;
  int next_fresh = 0;
  const auto fresh_arch = [&] {
    const int n = next_fresh++;
    return std::to_string(1 + n % 7) + "," + std::to_string(1 + n / 7 % 7) +
           "," + std::to_string(1 + n / 49 % 7) + ",6";
  };
  const auto submit = [&](serve::FrameVerb verb, const std::string& payload,
                          serve::ReplyCallback done) {
    std::size_t wire_bytes = 0;
    const serve::ParsedRequest request =
        esm2_request(next_id++, verb, payload, wire_bytes);
    server.handle_request(request, wire_bytes, std::move(done));
  };
  const std::string hit = "3:k5,5:k7e0.667,2,7:k3e1";
  // Serves one round with its k-th allocation failing; returns whether
  // the injection fired.
  const auto serve_round = [&](std::uint64_t k) {
    std::vector<std::shared_ptr<CountingSlot>> slots;
    for (int i = 0; i < 3; ++i) {
      slots.push_back(std::make_shared<CountingSlot>());
      if (i < 2) {
        submit(serve::FrameVerb::predict, fresh_arch(),
               counting_completion(slots.back()));
      } else {
        submit(serve::FrameVerb::predict_batch,
               hit + ";" + fresh_arch() + ";" + fresh_arch(),
               counting_completion(slots.back()));
      }
    }
    t_seen = 0;
    t_fail_at = k;
    const bool left = server.flush();
    t_fail_at = 0;
    EXPECT_FALSE(left) << "allocation " << k;
    for (const auto& slot : slots) {
      EXPECT_EQ(slot->replies.load(), 1) << "allocation " << k;
      EXPECT_TRUE(slot->reply.ok ||
                  slot->reply.code == serve::ErrorCode::server_error)
          << "allocation " << k << ": " << slot->reply.payload;
    }
    return k != 0 && t_seen >= k;
  };
  submit(serve::FrameVerb::predict, hit,
         counting_completion(std::make_shared<CountingSlot>()));
  for (int i = 0; i < 4; ++i) serve_round(0);  // warm-up
  std::uint64_t k = 1;
  for (; k < 256; ++k) {
    if (!serve_round(k)) break;
  }
  EXPECT_GT(k, 1u) << "flush() made no allocation to fail";
  EXPECT_LT(k, 256u);
  const serve::MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.requests, snap.hits + snap.misses + snap.errors);
  EXPECT_EQ(snap.archs, snap.arch_hits + snap.arch_misses);
  EXPECT_EQ(snap.batched_archs, snap.arch_misses);
}

TEST(FastPathTest, EventLoopAnswersOrDropsWhenAFlushAllocationFails) {
  // The event loop's completion callback runs inside the reactor's flush()
  // for a miss and must not throw. An in-process miss queued ahead of a
  // TCP client's miss arms the reactor's injector when flush() answers it,
  // so the k-th allocation after it fails, for every k the rest of the
  // round reaches, rendering the client's response included; the pass's
  // stop check disarms it. The client always hears back, with a reply or
  // (when its response could not be rendered) the end of its stream, and
  // the loop still drains. Over TCP the reactor's own writes allocate
  // nothing, so every injected failure lands inside the round.
  //
  // The in-process miss must share the client's round. It is submitted
  // only once the reactor has ended the pass that accepted the client and
  // has closed the previous client, so the reactor sleeps until the
  // client's line arrives. Submitted any earlier, it can be priced alone by
  // the rest of the accept pass or by the previous client's hangup, and
  // under load that schedule can repeat on every retry of a k.
  serve::PredictionServer server(small_served_config());
  // 0/1: whether the armed injection fired; 2: the armed miss was priced
  // in a round without the client's miss, so this k runs again.
  std::atomic<int> outcome{-1};
  // The accepted count as of the end of the reactor's latest pass.
  std::atomic<std::uint64_t> accepted_at_pass_end{0};
  const serve::EventLoop* loop_view = nullptr;
  serve::EventLoopConfig loop_config;
  loop_config.tick_ms = 60000;  // the reactor wakes only for work
  loop_config.external_stop_check = [&] {
    accepted_at_pass_end.store(loop_view->stats().accepted);
    if (t_fail_at != 0) {
      // A round that allocated nothing after the arming could not fail
      // any allocation, whatever k is: the same schedule as outcome 2.
      outcome.store(t_seen >= t_fail_at ? 1 : t_seen == 0 ? 2 : 0);
      t_fail_at = 0;
    }
    return false;
  };
  serve::EventLoop loop(server, loop_config);
  loop_view = &loop;
  int port = 0;
  loop.add_listener(serve::make_tcp_listener(0, &port));
  std::thread reactor([&loop] { loop.run(); });
  int next_fresh = 0;
  const auto fresh_arch = [&] {
    const int n = next_fresh++;
    return std::to_string(1 + n % 7) + "," + std::to_string(1 + n / 7 % 7) +
           "," + std::to_string(1 + n / 49 % 7) + ",7";
  };
  const auto within_10s = [](const auto& ready) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!ready() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    return ready();
  };
  std::uint64_t k = 0;  // k = 0 warms the reactor up, injecting nothing
  for (int retries = 0; k < 256 && retries < 64;) {
    const std::uint64_t accepted = loop.stats().accepted;
    const std::shared_ptr<serve::ClientChannel> client =
        serve::connect_tcp("127.0.0.1", port);
    ASSERT_TRUE(
        within_10s([&] { return accepted_at_pass_end.load() > accepted; }));
    outcome.store(k == 0 ? 0 : -1);
    const std::uint64_t submitted = loop.stats().requests;
    serve::ParsedRequest request;
    request.verb = "predict";
    request.payload = fresh_arch();
    server.handle_request(
        request, request.payload.size(),
        [&loop, &outcome, submitted, k](serve::Reply&&) {
          if (k == 0) return;
          if (loop.stats().requests == submitted) {
            outcome.store(2);
            return;
          }
          t_seen = 0;
          t_fail_at = k;
        });
    ASSERT_TRUE(client->send("predict " + fresh_arch() + "\n"));
    std::string bytes;
    bool timed_out = false;
    if (client->receive_some(bytes, 10000, &timed_out)) {
      EXPECT_EQ(bytes.rfind("esm1 ", 0), 0u)
          << "allocation " << k << ": " << bytes;
    }
    ASSERT_FALSE(timed_out) << "allocation " << k << ": never answered";
    client->close();
    ASSERT_TRUE(within_10s([&] { return loop.stats().active == 0; }));
    ASSERT_TRUE(within_10s([&] { return outcome.load() >= 0; }));
    if (outcome.load() == 2) {
      ++retries;
      continue;
    }
    if (k > 0 && outcome.load() == 0) break;
    ++k;
  }
  EXPECT_GT(k, 1u) << "the round made no allocation to fail";
  EXPECT_LT(k, 256u);
  // request_stop() skips the wake pipe while a pass is running, and the
  // last client's close has already been handled, so a stop requested
  // after that pass's stop check would sleep out the tick;
  // notify_external() always writes the pipe.
  loop.request_stop();
  loop.notify_external();
  reactor.join();
  const serve::MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.requests, snap.hits + snap.misses + snap.errors);
}

}  // namespace
}  // namespace esm
