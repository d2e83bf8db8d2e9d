// Tests for overload-safe serving: per-request deadlines on both wire
// protocols (the esm1 `deadline=` token and the esm2 v2 frame field)
// enforced at admission and when flush() takes a line into its round,
// bounded admission answering `overloaded` instead of stalling, rounds of
// at most max_batch archs, degraded mode under sustained pressure, the
// shed/expired/degraded metrics reconciling with the accounting
// identities, and the client side: RetryPolicy-driven retries of
// retryable errors and per-request timeouts with reconnect.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/retry.hpp"
#include "common/strings.hpp"
#include "serve/error.hpp"
#include "serve_harness.hpp"

namespace esm {
namespace {

using serve::ClientChannel;
using serve::EsmClient;
using serve::Frame;
using serve::FrameVerb;
using serve::Protocol;
using serve::ServeConfig;

const std::string& artifact() {
  static const std::string path = build_artifact("overload.esm");
  return path;
}

/// A deliberately slow model (50x the trees) for the queue-pressure
/// tests: with this artifact pricing drains the queue far slower than the
/// reactor parses, so a pinned queue stays deep for tens of milliseconds
/// instead of evaporating while later requests are still being read.
const std::string& slow_artifact() {
  static const std::string path =
      build_artifact("overload_slow.esm", rtx4090_spec(), 1500);
  return path;
}

/// Queue-pressure setup: the slow model, no cache, one arch per round. A
/// 1000-arch batch is one queue entry (the server queues one per request
/// line) priced over 1000 reactor wakeups; it holds 1000 admission slots
/// against max_queue and stays queued for tens of milliseconds.
ServeConfig slow_config() {
  ServeConfig config = serve_config(slow_artifact());
  config.cache_capacity = 0;
  config.max_batch = 1;
  return config;
}

/// A slow request: one predict_batch over `archs` of the deepest archs in
/// the space (28 blocks each), so with the cache off every arch costs a
/// full encode plus tree walk — the slowest pin available to the tests.
std::string heavy_batch_payload(std::size_t archs) {
  static const char* kVariants[] = {"7:k7e1,7:k5e1,7:k7e1,7:k3e1",
                                    "7:k5e1,7:k7e1,7:k5e1,7:k7e1",
                                    "7:k3e1,7:k7e1,7:k7e1,7:k5e1"};
  std::string payload;
  for (std::size_t i = 0; i < archs; ++i) {
    if (i > 0) payload += ';';
    payload += kVariants[i % 3];
  }
  return payload;
}

/// Hands one request line straight to the server core, as a front end
/// would after framing it.
void submit_line(serve::PredictionServer& server, const std::string& verb,
                 const std::string& payload, std::uint32_t deadline_ms,
                 serve::ReplyCallback done) {
  serve::ParsedRequest request;
  request.verb = verb;
  request.payload = payload;
  request.deadline_ms = deadline_ms;
  server.handle_request(request, payload.size(), std::move(done));
}

/// A completion that holds the flush() that answers it (and so that
/// flush's round) until the test opens it.
struct Gate {
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
  std::atomic<bool> entered{false};

  serve::ReplyCallback callback() {
    return [this](serve::Reply&&) {
      entered.store(true);
      opened.wait();
    };
  }
  /// Spins until a flush() reached this completion (10 s at most).
  bool wait_entered() const {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!entered.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    return entered.load();
  }
};

/// Runs one flush() on a helper thread, so a Gate completion can hold its
/// round while the test thread admits and sheds through handle_request.
std::future<bool> flush_async(serve::PredictionServer& server) {
  return std::async(std::launch::async, [&server] { return server.flush(); });
}

/// Outcome of pin_then_flood: how the flood requests were answered.
struct Flood {
  std::size_t served = 0;
  std::size_t shed = 0;  ///< answered with the retryable `overloaded` error
};

/// Writes a predict_batch pin and a predict flood as esm1 lines in ONE
/// send, so the reactor parses the flood right behind the pin instead of
/// racing separate writes. The pin holds its slots until its last arch is
/// priced, over many reactor wakeups, so most of a flood as large as the
/// pin finds the cap full. esm1
/// answers a connection in request order; the pin must serve and every
/// flood request must serve or shed.
Flood pin_then_flood(ClientChannel& channel, const std::string& pin_payload,
                     const std::vector<std::string>& flood) {
  std::string wire = "predict_batch " + pin_payload + "\n";
  for (const std::string& spec : flood) wire += "predict " + spec + "\n";
  EXPECT_TRUE(channel.send(wire));
  Flood outcome;
  std::string buffer;
  for (std::size_t answered = 0; answered < flood.size() + 1;) {
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      if (channel.receive_some(buffer)) continue;
      ADD_FAILURE() << "server closed early";
      break;
    }
    const std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    std::istringstream in(line);
    std::string proto, status, verb_or_code;
    in >> proto >> status >> verb_or_code;
    if (answered++ == 0) {
      EXPECT_EQ(status, "ok") << line;
    } else if (status == "ok") {
      ++outcome.served;
    } else {
      EXPECT_EQ(verb_or_code, "overloaded") << line;
      ++outcome.shed;
    }
  }
  return outcome;
}

// -- deadlines -------------------------------------------------------------

TEST(OverloadTest, Esm1DeadlineTokenExpiresInQueue) {
  // Fat batches against the slow model take 1000 one-arch rounds each,
  // tens of milliseconds; a 1 ms deadline queued behind them must expire
  // when its round takes it and answer deadline_exceeded without spending
  // a predict_all slot.
  Harness harness(slow_config());
  EsmClient client = harness.client(Protocol::esm1);

  const std::string slow = heavy_batch_payload(1000);
  std::vector<std::uint64_t> pins;
  for (int i = 0; i < 2; ++i) {
    pins.push_back(client.submit("predict_batch", slow));
  }
  const std::uint64_t victim =
      client.submit("predict", "deadline=1 3,5,2,7");
  for (const std::uint64_t pin : pins) {
    EXPECT_TRUE(client.await(pin).ok);
  }
  const EsmClient::Response expired = client.await(victim);
  EXPECT_FALSE(expired.ok);
  EXPECT_EQ(expired.verb_or_code, "deadline_exceeded");

  // A deadline-free request on the same connection still serves.
  EXPECT_GT(client.predict("3,5,2,7"), 0.0);

  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "expired"), 1u);
  EXPECT_EQ(stat(stats, "shed"), 0u);
  EXPECT_EQ(stat(stats, "errors"), 1u);
  EXPECT_EQ(stat(stats, "requests"),
            stat(stats, "hits") + stat(stats, "misses") +
                stat(stats, "errors"));
  expect_one_error(serve::MetricsSnapshot{}, harness.server.metrics(),
                   "deadline_exceeded", "default");
  expect_identities(harness.server.metrics());
}

TEST(OverloadTest, Esm2DeadlineFrameExpiresInQueue) {
  Harness harness(slow_config());
  std::shared_ptr<ClientChannel> channel = harness.listener->connect();

  constexpr std::uint64_t kPins = 2;
  const std::string slow = heavy_batch_payload(1000);
  std::string wire;
  for (std::uint64_t id = 1; id <= kPins; ++id) {
    wire += serve::encode_request(id, FrameVerb::predict_batch, slow);
  }
  const std::uint64_t victim = kPins + 1;
  wire += serve::encode_request(victim, FrameVerb::predict, "3,5,2,7",
                                /*deadline_ms=*/1);
  ASSERT_TRUE(channel->send(wire));

  std::string buffer;
  std::map<std::uint64_t, Frame> frames;
  for (std::uint64_t i = 0; i <= kPins; ++i) {
    const Frame frame = next_frame(*channel, buffer);
    frames[frame.request_id] = frame;
  }
  ASSERT_EQ(frames.count(victim), 1u);
  EXPECT_EQ(frames[victim].verb, serve::kFrameErrorVerb);
  std::uint8_t code = 0;
  std::string_view detail;
  ASSERT_TRUE(serve::split_error_payload(frames[victim].payload, code, detail));
  EXPECT_EQ(static_cast<serve::ErrorCode>(code),
            serve::ErrorCode::deadline_exceeded);
  channel->close();
  expect_identities(harness.server.metrics());
}

TEST(OverloadTest, GenerousDeadlineDoesNotPerturbServing) {
  // A deadline far in the future must serve bit-identically to none.
  Harness harness(serve_config(artifact()));
  EsmClient client = harness.client(Protocol::esm1);
  const EsmClient::Response plain = client.call("predict", "3,5,2,7");
  const EsmClient::Response budgeted =
      client.call("predict", "deadline=60000 3,5,2,7");
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(budgeted.ok);
  EXPECT_EQ(plain.payload, budgeted.payload);
  EXPECT_EQ(stat(client.stats(), "expired"), 0u);
  expect_identities(harness.server.metrics());
}

TEST(OverloadTest, MalformedDeadlineTokenIsBadRequest) {
  Harness harness(serve_config(artifact()));
  EsmClient client = harness.client(Protocol::esm1);
  const serve::MetricsSnapshot before = harness.server.metrics();
  const EsmClient::Response bad = client.call("predict", "deadline=zero 3,5,2,7");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.verb_or_code, "bad_request");
  expect_one_error(before, harness.server.metrics(), "bad_request",
                   "_unrouted");
  expect_identities(harness.server.metrics());
}

TEST(OverloadTest, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  // With a 1 ms server-wide default and the queue pinned, even plain
  // requests expire; a per-request deadline overrides the default.
  ServeConfig config = slow_config();
  config.default_deadline_ms = 1;
  Harness harness(config);
  EsmClient client = harness.client(Protocol::esm1);

  // The pinning batches carry explicit roomy deadlines so the server
  // default never expires them — they are priced at full compute cost
  // while `plain` (inheriting the 1 ms default) waits behind them.
  const std::string slow = "deadline=60000 " + heavy_batch_payload(1000);
  std::vector<std::uint64_t> pins;
  for (int i = 0; i < 2; ++i) {
    pins.push_back(client.submit("predict_batch", slow));
  }
  const std::uint64_t plain = client.submit("predict", "3,5,2,7");
  const std::uint64_t roomy =
      client.submit("predict", "deadline=60000 1,1,1,1");
  for (const std::uint64_t pin : pins) {
    EXPECT_TRUE(client.await(pin).ok);
  }
  const EsmClient::Response expired = client.await(plain);
  EXPECT_FALSE(expired.ok);
  EXPECT_EQ(expired.verb_or_code, "deadline_exceeded");
  EXPECT_TRUE(client.await(roomy).ok);
  expect_identities(harness.server.metrics());
}

// -- admission control -----------------------------------------------------

TEST(OverloadTest, FullQueueShedsWithOverloaded) {
  // The admission cap counts the miss archs admitted but not yet answered.
  // A 999-arch batch against the slow model fills it to one slot under the
  // cap, and holds them until its last arch is priced, whether over 999
  // one-arch rounds (max_batch 1) or in one (max_batch 1024). Either way a
  // pipelined flood of 1000 predicts must be answered — a few served into
  // free slots, the rest shed immediately with `overloaded` — and the
  // metrics identities must reconcile exactly.
  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{1024}}) {
    SCOPED_TRACE("max_batch " + std::to_string(max_batch));
    ServeConfig config = slow_config();
    config.max_batch = max_batch;
    config.max_queue = 1000;
    Harness harness(config);
    std::shared_ptr<ClientChannel> channel = harness.listener->connect();

    const std::vector<std::string> pool = arch_pool(1000);
    const Flood flood =
        pin_then_flood(*channel, heavy_batch_payload(999), pool);
    EXPECT_EQ(flood.served + flood.shed, pool.size());
    EXPECT_GT(flood.shed, 0u);

    EsmClient client(channel, Protocol::esm1);
    const std::map<std::string, std::string> stats = client.stats();
    EXPECT_EQ(stat(stats, "shed"), flood.shed);
    EXPECT_EQ(stat(stats, "errors"), flood.shed);
    EXPECT_EQ(stat(stats, "requests"),
              stat(stats, "hits") + stat(stats, "misses") +
                  stat(stats, "errors"));
    // Shed requests are never priced: every batched arch came from a
    // request that was actually admitted.
    EXPECT_EQ(stat(stats, "model.default.shed"), flood.shed);
    EXPECT_EQ(stat(stats, "model.default.errors"), flood.shed);
    EXPECT_EQ(stat(stats, "expired"), 0u);

    // The server recovered: a fresh request serves normally.
    EXPECT_GT(client.predict("3,5,2,7"), 0.0);
    expect_identities(harness.server.metrics());
  }
}

TEST(OverloadTest, AdmissionCapCountsTheDispatchingRound) {
  // Deterministic shed and expiry, straight through the server core. A
  // gate miss holds a helper thread's flush() inside its round, so with
  // max_queue 2 one more miss queues and the next is shed: the cap counts
  // the line being answered too. The queued miss's deadline lapses behind
  // the gate and it expires when the next flush() takes it. Each failed
  // line moves the stats by one error, on the model it routed to, and only
  // the gate's miss is priced: batched_archs == arch_misses holds while the
  // server sheds.
  ServeConfig config = serve_config(artifact());
  config.max_queue = 2;
  config.max_batch = 1;
  config.max_batch_archs = 1 << 19;
  config.max_line_bytes = 16 << 20;
  serve::PredictionServer server(config);
  const auto store = [](std::optional<serve::Reply>& slot) {
    return [&slot](serve::Reply&& reply) { slot = std::move(reply); };
  };

  // Admission expiry: the deadline clock starts when the line is routed,
  // and the batch is checked against it only once every architecture has
  // been scanned into a cache key. Scanning 300k architectures (~8 MB)
  // takes ~170 ms on a 4-vCPU x86-64 host, two orders of magnitude past
  // the 1 ms deadline, so only a host scanning over 8 GB/s could admit it.
  serve::MetricsSnapshot before = server.metrics();
  std::optional<serve::Reply> late_batch;
  submit_line(server, "predict_batch", heavy_batch_payload(300000), 1,
              store(late_batch));
  ASSERT_TRUE(late_batch.has_value());
  EXPECT_EQ(late_batch->code, serve::ErrorCode::deadline_exceeded);
  expect_one_error(before, server.metrics(), "deadline_exceeded", "default");

  const std::vector<std::string> pool = arch_pool(3);
  Gate gate;
  submit_line(server, "predict", pool[0], 0, gate.callback());
  std::future<bool> round = flush_async(server);
  ASSERT_TRUE(gate.wait_entered());

  std::optional<serve::Reply> queued;
  submit_line(server, "predict", pool[1], 100, store(queued));
  before = server.metrics();
  std::optional<serve::Reply> shed;
  submit_line(server, "predict", pool[2], 0, store(shed));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->code, serve::ErrorCode::overloaded);
  EXPECT_EQ(shed->payload, "server overloaded: admission queue full");
  expect_one_error(before, server.metrics(), "overloaded", "default");
  EXPECT_EQ(server.metrics().arch_misses, before.arch_misses);

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  before = server.metrics();
  gate.open.set_value();
  EXPECT_TRUE(round.get()) << "the queued miss was left for the next call";
  EXPECT_FALSE(queued.has_value());
  EXPECT_FALSE(server.flush());
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->code, serve::ErrorCode::deadline_exceeded);
  EXPECT_EQ(queued->payload, "deadline passed before the request was served");
  const serve::MetricsSnapshot after = server.metrics();
  expect_one_error(before, after, "deadline_exceeded", "default");
  EXPECT_EQ(after.arch_misses, 1u);
  EXPECT_EQ(section_counters(after, "default").arch_misses, 1u);
  expect_identities(after);
}

TEST(OverloadTest, ShedBatchPricesNothing) {
  // A line is admitted or shed whole. A gate miss holds a helper thread's
  // flush() inside its round and one of max_queue's 4 slots, so a batch of
  // 4 fresh misses does not fit: it answers `overloaded` at once, and none
  // of its archs is priced or cached, then or after the gate opens.
  ServeConfig config = serve_config(artifact());
  config.max_queue = 4;
  config.max_batch = 1;
  serve::PredictionServer server(config);
  const auto cache_size = [&server] {
    return server.fleet()->default_model().cache->size();
  };
  const std::vector<std::string> pool = arch_pool(6);

  Gate gate;
  submit_line(server, "predict", pool[0], 0, gate.callback());
  std::future<bool> round = flush_async(server);
  ASSERT_TRUE(gate.wait_entered());
  const serve::MetricsSnapshot before = server.metrics();
  const std::size_t cached = cache_size();
  std::optional<serve::Reply> shed;
  submit_line(server, "predict_batch",
              join_batch({pool[1], pool[2], pool[3], pool[4]}), 0,
              [&shed](serve::Reply&& r) { shed = std::move(r); });
  const bool answered_at_once = shed.has_value();
  const serve::MetricsSnapshot at_shed = server.metrics();

  // A miss queued after the gate opens is priced by the next flush(): only
  // it is priced and cached.
  gate.open.set_value();
  EXPECT_FALSE(round.get());
  ASSERT_TRUE(answered_at_once) << "the shed batch waited for the round";
  EXPECT_EQ(shed->code, serve::ErrorCode::overloaded);
  expect_one_error(before, at_shed, "overloaded", "default");
  std::optional<serve::Reply> fresh;
  submit_line(server, "predict", pool[5], 0,
              [&fresh](serve::Reply&& r) { fresh = std::move(r); });
  EXPECT_FALSE(server.flush());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(fresh->ok);
  const serve::MetricsSnapshot after = server.metrics();
  EXPECT_EQ(after.arch_misses, before.arch_misses + 1);
  EXPECT_EQ(after.batched_archs, before.batched_archs + 1);
  expect_identities(after);
  EXPECT_EQ(cache_size(), cached + 1);
}

TEST(OverloadTest, IdleServerServesABatchLargerThanTheQueueCap) {
  // A line is admitted or shed whole, so one with more misses than
  // max_queue never fits under the cap; an idle server admits it anyway
  // (nothing else is admitted) and prices it in predict_all calls of at
  // most max_batch archs, bit-identical to offline.
  ServeConfig config = serve_config(artifact());
  config.max_queue = 4;
  config.max_batch = 3;
  Harness harness(config);
  EsmClient client = harness.client(Protocol::esm1);
  const std::vector<std::string> pool = arch_pool(10);
  const std::map<std::string, double> expected =
      offline_predictions(artifact(), pool);

  const std::vector<double> values = client.predict_batch(pool);
  ASSERT_EQ(values.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(values[i], expected.at(pool[i])) << pool[i];
  }
  const serve::MetricsSnapshot snap = harness.server.metrics();
  EXPECT_EQ(snap.shed, 0u);
  EXPECT_EQ(snap.arch_misses, 10u);
  EXPECT_EQ(snap.batched_archs, snap.arch_misses);
  EXPECT_EQ(snap.batches, 4u);  // 3 + 3 + 3 + 1
  EXPECT_EQ(snap.max_batch, 3u);
  expect_identities(snap);
}

TEST(OverloadTest, FlushPricesAtMostMaxBatchArchsPerCall) {
  // One flush() prices one round of at most max_batch archs, so a large
  // predict_batch stalls the reactor for one max_batch call at most: a
  // 1000-arch line at max_batch 64 is priced over 16 calls and answered by
  // the last, bit-identical to an offline predict_all.
  ServeConfig config = serve_config(artifact());
  ASSERT_EQ(config.max_batch, 64u);
  serve::PredictionServer server(config);
  const std::vector<std::string> pool = arch_pool(1000);
  std::optional<serve::Reply> reply;
  submit_line(server, "predict_batch", join_batch(pool), 0,
              [&reply](serve::Reply&& r) { reply = std::move(r); });

  EXPECT_TRUE(server.flush());
  EXPECT_FALSE(reply.has_value()) << "the line was answered half priced";
  serve::MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.batched_archs, 64u);
  int calls = 1;
  while (server.flush()) ++calls;
  EXPECT_EQ(calls, 15);  // the 16th call answered the line
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->ok) << reply->payload;

  const std::unique_ptr<TrainableSurrogate> offline = load_surrogate(artifact());
  std::vector<ArchConfig> archs;
  for (const std::string& spec : pool) {
    archs.push_back(serve::parse_arch_request(offline->spec(), spec));
  }
  const std::vector<double> expected = offline->predict_all(archs);
  std::string payload = std::to_string(expected.size());
  for (const double value : expected) {
    payload += ' ';
    append_g17(payload, value);
  }
  EXPECT_EQ(reply->payload, payload);
  snap = server.metrics();
  EXPECT_EQ(snap.batches, 16u);  // 15 x 64 + 40
  EXPECT_EQ(snap.max_batch, 64u);
  EXPECT_EQ(snap.degraded_entries, 0u) << "no max_queue, no degraded mode";
  expect_identities(snap);

  // A line never waits for a larger one queued behind it: a single ahead
  // of a 100-arch batch is answered by the first round.
  const std::vector<std::string> fresh = arch_pool(1101);
  std::optional<serve::Reply> single;
  std::optional<serve::Reply> batch;
  submit_line(server, "predict", fresh[1000], 0,
              [&single](serve::Reply&& r) { single = std::move(r); });
  submit_line(server, "predict_batch",
              join_batch({fresh.begin() + 1001, fresh.end()}), 0,
              [&batch](serve::Reply&& r) { batch = std::move(r); });
  EXPECT_TRUE(server.flush());
  ASSERT_TRUE(single.has_value());
  EXPECT_TRUE(single->ok);
  EXPECT_FALSE(batch.has_value());
  while (server.flush()) {
  }
  ASSERT_TRUE(batch.has_value());
  EXPECT_TRUE(batch->ok);
  expect_identities(server.metrics());
}

TEST(OverloadTest, ExpiredLineIsAnsweredBeforeItsRoundIsPriced) {
  // A line whose deadline passed while queued is answered when a round
  // takes it, before the live lines of that round are priced: a gate miss
  // holds a helper thread's flush() while a live batch and a
  // short-deadline single queue behind it in one round's worth of archs.
  ServeConfig config = serve_config(artifact());
  config.max_batch = 4;
  serve::PredictionServer server(config);
  const std::vector<std::string> pool = arch_pool(5);
  Gate gate;
  submit_line(server, "predict", pool[0], 0, gate.callback());
  std::future<bool> round = flush_async(server);
  ASSERT_TRUE(gate.wait_entered());
  std::optional<serve::Reply> live;
  submit_line(server, "predict_batch",
              join_batch({pool[1], pool[2], pool[3]}), 0,
              [&live](serve::Reply&& reply) { live = std::move(reply); });
  std::optional<std::uint64_t> priced_at_expiry;
  serve::ErrorCode code = serve::ErrorCode::server_error;
  submit_line(server, "predict", pool[4], 20,
              [&](serve::Reply&& reply) {
                code = reply.code;
                priced_at_expiry = server.metrics().batched_archs;
              });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.open.set_value();
  EXPECT_TRUE(round.get());
  EXPECT_FALSE(server.flush());
  ASSERT_TRUE(priced_at_expiry.has_value());
  EXPECT_EQ(*priced_at_expiry, 1u)
      << "the expired line waited for its round to be priced";
  EXPECT_EQ(code, serve::ErrorCode::deadline_exceeded);
  ASSERT_TRUE(live.has_value());
  EXPECT_TRUE(live->ok);
  const serve::MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.expired, 1u);
  EXPECT_EQ(snap.batched_archs, 4u);
  expect_identities(snap);
}

TEST(OverloadTest, SustainedPressureEntersDegradedMode) {
  // Queue cap 8 -> pressure threshold 4, one arch per round (max_batch 1).
  // A round's load is the miss archs admitted and not yet answered, so a
  // 4-arch batch starts each of the four rounds that price it at a load of
  // 4: the fourth round in a row under pressure enters degraded mode, and
  // a lone request after it starts a round at a load of 1, a quarter of
  // the cap, which lifts the mode (the gauge returns to 0).
  ServeConfig config = serve_config(artifact());
  config.cache_capacity = 0;
  config.max_batch = 1;
  config.max_queue = 8;
  serve::PredictionServer server(config);
  const std::vector<std::string> pool = arch_pool(5);
  std::size_t answered = 0;
  const auto count = [&answered](serve::Reply&& reply) {
    EXPECT_TRUE(reply.ok) << reply.payload;
    ++answered;
  };
  submit_line(server, "predict_batch",
              join_batch({pool[0], pool[1], pool[2], pool[3]}), 0, count);
  for (int round = 1; round <= 3; ++round) {
    EXPECT_TRUE(server.flush());
    EXPECT_EQ(server.metrics().degraded, 0u) << "round " << round;
  }
  EXPECT_FALSE(server.flush());
  EXPECT_EQ(answered, 1u);
  EXPECT_EQ(server.metrics().degraded, 1u);
  EXPECT_EQ(server.metrics().degraded_entries, 1u);

  submit_line(server, "predict", pool[4], 0, count);
  EXPECT_FALSE(server.flush());
  EXPECT_EQ(answered, 2u);
  const serve::MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.degraded, 0u) << "gauge must clear once pressure lifts";
  EXPECT_EQ(snap.degraded_entries, 1u);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_EQ(snap.arch_misses, 5u);
  expect_identities(snap);
}

TEST(OverloadTest, SustainedPressureEntersDegradedModeAtFullBatches) {
  // The same cap of 8 at the default max_batch: each round prices all that
  // is queued, so it is the eight singles admitted before each of four
  // rounds that keep the load at 8. Degraded mode then halves the round:
  // a 40-arch batch, admitted alone past the cap, is priced 32 + 8, and a
  // lone request after it lifts the mode.
  ServeConfig config = serve_config(artifact());
  config.cache_capacity = 0;
  config.max_queue = 8;
  ASSERT_EQ(config.max_batch, 64u);
  serve::PredictionServer server(config);
  const std::vector<std::string> pool = arch_pool(73);
  std::size_t next = 0;
  std::size_t ok = 0;
  const auto count = [&ok](serve::Reply&& reply) { ok += reply.ok ? 1 : 0; };
  for (int round = 1; round <= 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      submit_line(server, "predict", pool[next++], 0, count);
    }
    EXPECT_FALSE(server.flush());
    EXPECT_EQ(server.metrics().degraded, round == 4 ? 1u : 0u)
        << "round " << round;
  }
  EXPECT_EQ(ok, 32u);
  EXPECT_EQ(server.metrics().shed, 0u);

  std::vector<std::string> batch(pool.begin() + 32, pool.begin() + 72);
  submit_line(server, "predict_batch", join_batch(batch), 0, count);
  const std::uint64_t priced = server.metrics().batched_archs;
  EXPECT_TRUE(server.flush());
  EXPECT_EQ(server.metrics().batched_archs - priced, 32u);
  EXPECT_FALSE(server.flush());
  EXPECT_EQ(ok, 33u);
  EXPECT_EQ(server.metrics().degraded, 1u);

  submit_line(server, "predict", pool[72], 0, count);
  EXPECT_FALSE(server.flush());
  const serve::MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(ok, 34u);
  EXPECT_EQ(snap.degraded, 0u);
  EXPECT_EQ(snap.degraded_entries, 1u);
  expect_identities(snap);
}

TEST(OverloadTest, IdleFlushLiftsDegradedMode) {
  // The first test's schedule enters degraded mode on the round that
  // drains the queue. The next flush() finds nothing admitted, a load of
  // 0, under a quarter of the cap: it lifts the mode, so an idle server's
  // stats stop reporting degraded=1, and no second entry is counted.
  ServeConfig config = serve_config(artifact());
  config.cache_capacity = 0;
  config.max_batch = 1;
  config.max_queue = 8;
  serve::PredictionServer server(config);
  submit_line(server, "predict_batch", join_batch(arch_pool(4)), 0,
              [](serve::Reply&& reply) { EXPECT_TRUE(reply.ok); });
  while (server.flush()) {
  }
  ASSERT_EQ(server.metrics().degraded, 1u);
  EXPECT_FALSE(server.flush());
  const serve::MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.degraded, 0u) << "an idle flush() must lift the gauge";
  EXPECT_EQ(snap.degraded_entries, 1u);
  expect_identities(snap);
}

// -- client retry / timeout -----------------------------------------------

/// Scripted channel: replays canned esm1 responses, one per send.
class ScriptedChannel final : public ClientChannel {
 public:
  explicit ScriptedChannel(std::vector<std::string> responses)
      : responses_(std::move(responses)) {}

  bool send(std::string_view) override {
    if (closed_) return false;
    ++sends_;
    return true;
  }

  bool receive_some(std::string& out, int /*timeout_ms*/,
                    bool* timed_out) override {
    if (timed_out) *timed_out = false;
    if (closed_ || next_ >= responses_.size()) {
      if (hang_when_exhausted_ && timed_out) {
        *timed_out = true;
        return false;
      }
      return false;  // end-of-stream
    }
    out += responses_[next_++];
    return true;
  }

  void close() override { closed_ = true; }

  int sends() const { return sends_; }
  void hang_when_exhausted() { hang_when_exhausted_ = true; }

 private:
  std::vector<std::string> responses_;
  std::size_t next_ = 0;
  int sends_ = 0;
  bool closed_ = false;
  bool hang_when_exhausted_ = false;
};

RetryPolicy fast_retry(int attempts) {
  RetryPolicy policy = RetryPolicy::client_defaults();
  policy.max_attempts = attempts;
  policy.backoff_base_s = 0.0;  // no real sleeping in unit tests
  return policy;
}

TEST(ClientRetryTest, RetriesOverloadedThenSucceeds) {
  auto channel = std::make_shared<ScriptedChannel>(std::vector<std::string>{
      "esm1 err overloaded try later\n",
      "esm1 err overloaded try later\n",
      "esm1 ok predict 1.5\n",
  });
  EsmClient client(channel, Protocol::esm1);
  client.set_retry(fast_retry(4), 0x5eed);
  EXPECT_EQ(client.predict("3,5,2,7"), 1.5);
  EXPECT_EQ(channel->sends(), 3);
}

TEST(ClientRetryTest, ExhaustedRetriesReturnTheError) {
  auto channel = std::make_shared<ScriptedChannel>(std::vector<std::string>{
      "esm1 err overloaded a\n",
      "esm1 err overloaded b\n",
  });
  EsmClient client(channel, Protocol::esm1);
  client.set_retry(fast_retry(2), 0x5eed);
  const EsmClient::Response response = client.call("predict", "3,5,2,7");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.verb_or_code, "overloaded");
  EXPECT_EQ(channel->sends(), 2);
}

TEST(ClientRetryTest, NonRetryableErrorsAreNotRetried) {
  auto channel = std::make_shared<ScriptedChannel>(std::vector<std::string>{
      "esm1 err bad_arch depth 0\n",
      "esm1 ok predict 1.5\n",
  });
  EsmClient client(channel, Protocol::esm1);
  client.set_retry(fast_retry(4), 0x5eed);
  const EsmClient::Response response = client.call("predict", "9999,1,1,1");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.verb_or_code, "bad_arch");
  EXPECT_EQ(channel->sends(), 1);
}

TEST(ClientRetryTest, DeadlineExceededIsNotRetried) {
  // The caller's budget ran out; an automatic retry must not second-guess.
  auto channel = std::make_shared<ScriptedChannel>(std::vector<std::string>{
      "esm1 err deadline_exceeded too slow\n",
      "esm1 ok predict 1.5\n",
  });
  EsmClient client(channel, Protocol::esm1);
  client.set_retry(fast_retry(4), 0x5eed);
  const EsmClient::Response response = client.call("predict", "3,5,2,7");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.verb_or_code, "deadline_exceeded");
  EXPECT_EQ(channel->sends(), 1);
}

TEST(ClientRetryTest, NonIdempotentVerbsAreNotRetried) {
  auto channel = std::make_shared<ScriptedChannel>(std::vector<std::string>{
      "esm1 err overloaded try later\n",
      "esm1 ok reload\n",
  });
  EsmClient client(channel, Protocol::esm1);
  client.set_retry(fast_retry(4), 0x5eed);
  const EsmClient::Response response = client.call("reload", "/some/path");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(channel->sends(), 1);
}

TEST(ClientRetryTest, TransportFailureReconnectsAndRetries) {
  // First channel dies mid-call; the reconnect factory hands out a healthy
  // replacement and the retry succeeds.
  auto broken = std::make_shared<ScriptedChannel>(std::vector<std::string>{});
  auto healthy = std::make_shared<ScriptedChannel>(std::vector<std::string>{
      "esm1 ok predict 2.5\n",
  });
  EsmClient client(broken, Protocol::esm1);
  client.set_retry(fast_retry(3), 0x5eed);
  client.set_reconnect([healthy] { return healthy; });
  EXPECT_EQ(client.predict("3,5,2,7"), 2.5);
  EXPECT_EQ(broken->sends(), 1);
  EXPECT_EQ(healthy->sends(), 1);
}

TEST(ClientRetryTest, TransportFailureWithoutReconnectThrows) {
  auto broken = std::make_shared<ScriptedChannel>(std::vector<std::string>{});
  EsmClient client(broken, Protocol::esm1);
  client.set_retry(fast_retry(3), 0x5eed);
  EXPECT_THROW(client.predict("3,5,2,7"), ConfigError);
}

TEST(ClientRetryTest, RequestTimeoutReconnectsAndRetries) {
  auto hanging = std::make_shared<ScriptedChannel>(std::vector<std::string>{});
  hanging->hang_when_exhausted();
  auto healthy = std::make_shared<ScriptedChannel>(std::vector<std::string>{
      "esm1 ok predict 3.5\n",
  });
  EsmClient client(hanging, Protocol::esm1);
  client.set_retry(fast_retry(3), 0x5eed);
  client.set_request_timeout(0.02);
  client.set_reconnect([healthy] { return healthy; });
  EXPECT_EQ(client.predict("3,5,2,7"), 3.5);
}

TEST(ClientRetryTest, RequestTimeoutWithoutRetryThrows) {
  auto hanging = std::make_shared<ScriptedChannel>(std::vector<std::string>{});
  hanging->hang_when_exhausted();
  EsmClient client(hanging, Protocol::esm1);
  client.set_request_timeout(0.02);
  EXPECT_THROW(client.predict("3,5,2,7"), ConfigError);
}

TEST(ClientRetryTest, EndToEndRetryRidesOutShedding) {
  // Against a real overloaded server: queue cap 1 plus a pinned queue
  // sheds most of a burst, but a retrying client converges to the answer.
  ServeConfig config = serve_config(artifact());
  config.cache_capacity = 0;
  config.max_batch = 1;
  config.max_queue = 1;
  Harness harness(config);

  // Saturate: a background client keeps the queue warm.
  std::atomic<bool> stop{false};
  std::thread background([&harness, &stop] {
    EsmClient flood = harness.client(Protocol::esm1);
    const std::string slow = join_batch(arch_pool(400));
    while (!stop.load()) {
      try {
        flood.call("predict_batch", slow);
      } catch (const ConfigError&) {
        break;  // drain began
      }
    }
  });

  EsmClient client = harness.client(Protocol::esm2);
  RetryPolicy policy = RetryPolicy::client_defaults();
  policy.max_attempts = 256;
  policy.backoff_base_s = 0.001;
  policy.backoff_multiplier = 1.0;  // constant 1 ms: bounded worst case
  client.set_retry(policy, 0x5eed);
  double value = 0.0;
  EXPECT_NO_THROW(value = client.predict("3,5,2,7"));
  EXPECT_GT(value, 0.0);
  stop.store(true);
  background.join();

  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "errors"), stat(stats, "shed"));
  expect_identities(harness.server.metrics());
}

}  // namespace
}  // namespace esm
