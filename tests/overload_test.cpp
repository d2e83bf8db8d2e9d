// Tests for overload-safe serving (PR 9): per-request deadlines on both
// wire protocols (the esm1 `deadline=` token and the esm2 v2 frame field)
// enforced at admission and at batcher dequeue, bounded admission queues
// answering `overloaded` instead of stalling, degraded mode under
// sustained pressure, the shed/expired/degraded metrics reconciling with
// the accounting identity, and the client side: RetryPolicy-driven
// retries of retryable errors and per-request timeouts with reconnect.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/retry.hpp"
#include "serve/error.hpp"
#include "serve_harness.hpp"

namespace esm {
namespace {

using serve::ClientChannel;
using serve::EsmClient;
using serve::Frame;
using serve::FrameVerb;
using serve::LoopbackChannel;
using serve::Protocol;
using serve::ServeConfig;

const std::string& artifact() {
  static const std::string path = build_artifact("overload.esm");
  return path;
}

/// A deliberately slow model (50x the trees) for the queue-pressure
/// tests: with this artifact the batcher drains far slower than the
/// reactor parses, so a pinned queue stays deep for tens of milliseconds
/// instead of evaporating while later requests are still being read.
const std::string& slow_artifact() {
  static const std::string path =
      build_artifact("overload_slow.esm", rtx4090_spec(), 1500);
  return path;
}

/// Queue-pressure setup: the slow model, no cache, one entry per dispatch
/// round. A 1000-arch batch pins the batcher for tens of milliseconds.
ServeConfig slow_config() {
  ServeConfig config = serve_config(slow_artifact());
  config.cache_capacity = 0;
  config.max_batch = 1;
  return config;
}

/// A slow request: one predict_batch over `archs` distinct architectures
/// with the cache off keeps the batcher busy for a full dispatch round.
/// Note the server enqueues one batcher entry PER MISS ARCH, so a payload
/// of N archs occupies N queue slots against max_queue/max_inflight.
std::string batch_payload(std::size_t archs) {
  return join_batch(arch_pool(archs));
}

/// Like batch_payload but built from the deepest archs in the space (28
/// blocks each), so every uncached entry costs a full encode plus tree
/// walk — the slowest per-round pin available to the tests.
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

/// Outcome of pin_then_flood: how the flood requests were answered.
struct Flood {
  std::size_t served = 0;
  std::size_t shed = 0;  ///< answered with the retryable `overloaded` error
};

/// Writes a predict_batch pin and a predict flood as esm1 lines in ONE
/// send, so the reactor parses the flood right behind the pin instead of
/// racing separate writes. A flood as large as the pin is admitted whole
/// only if the batcher computes the entire pin while the reactor parses a
/// few lines, which no scheduling of a loaded host comes near. esm1
/// answers a connection in request order; the pin must serve and every
/// flood request must serve or shed.
Flood pin_then_flood(LoopbackChannel& channel, const std::string& pin_payload,
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
  // A fat batch against the slow model pins the batcher for tens of
  // milliseconds (1000 per-arch entries, one per dispatch round); a 1 ms
  // deadline queued behind it must expire at dequeue and answer
  // deadline_exceeded without spending a predict_all slot.
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
}

TEST(OverloadTest, Esm2DeadlineFrameExpiresInQueue) {
  Harness harness(slow_config());
  std::shared_ptr<LoopbackChannel> channel = harness.listener->connect();

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
}

TEST(OverloadTest, MalformedDeadlineTokenIsBadRequest) {
  Harness harness(serve_config(artifact()));
  EsmClient client = harness.client(Protocol::esm1);
  const EsmClient::Response bad = client.call("predict", "deadline=zero 3,5,2,7");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.verb_or_code, "bad_request");
}

TEST(OverloadTest, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  // With a 1 ms server-wide default and the batcher pinned, even plain
  // requests expire; a per-request deadline overrides the default.
  ServeConfig config = slow_config();
  config.default_deadline_ms = 1;
  Harness harness(config);
  EsmClient client = harness.client(Protocol::esm1);

  // The pinning batches carry explicit roomy deadlines so the server
  // default never expires them — they keep the batcher at full compute
  // cost while `plain` (inheriting the 1 ms default) waits behind them.
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
}

// -- admission control -----------------------------------------------------

TEST(OverloadTest, FullQueueShedsWithOverloaded) {
  // A 999-arch batch against the slow model fills the queue to one slot
  // under its cap, and at one entry per round the queue stays near-full
  // for tens of milliseconds: a pipelined flood of 1000 predicts must be
  // answered — a few served into freed slots, the rest shed immediately
  // with `overloaded` — and the metrics identity must reconcile exactly.
  ServeConfig config = slow_config();
  config.max_queue = 1000;
  Harness harness(config);
  std::shared_ptr<LoopbackChannel> channel = harness.listener->connect();

  const std::vector<std::string> pool = arch_pool(1000);
  const Flood flood =
      pin_then_flood(*channel, heavy_batch_payload(999), pool);
  EXPECT_EQ(flood.served + flood.shed, pool.size());
  EXPECT_GT(flood.shed, 0u);

  EsmClient client(serve::loopback_channel(channel), Protocol::esm1);
  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "shed"), flood.shed);
  EXPECT_EQ(stat(stats, "errors"), flood.shed);
  EXPECT_EQ(stat(stats, "requests"),
            stat(stats, "hits") + stat(stats, "misses") +
                stat(stats, "errors"));
  // Shed requests never reach the batcher: every batched arch came from a
  // request that was actually admitted.
  EXPECT_EQ(stat(stats, "model.default.shed"), flood.shed);

  // The server recovered: a fresh request serves normally.
  EXPECT_GT(client.predict("3,5,2,7"), 0.0);
}

TEST(OverloadTest, MaxInflightCapsAdmittedTotal) {
  // max_inflight counts queued + currently-dispatching entries, and with
  // max_batch above the head's size the 1000-arch batch dispatches in a
  // few multi-millisecond predict_all rounds against the slow model —
  // queued+inflight stays near 1000 while they run, so a pipelined flood
  // of 1000 predicts against a cap of 1001 finds a few slots and the rest
  // sheds.
  ServeConfig config = slow_config();
  config.max_batch = 1024;
  config.max_inflight = 1001;
  Harness harness(config);
  std::shared_ptr<LoopbackChannel> channel = harness.listener->connect();

  const std::vector<std::string> pool = arch_pool(1000);
  const Flood flood =
      pin_then_flood(*channel, heavy_batch_payload(1000), pool);
  EXPECT_EQ(flood.served + flood.shed, pool.size());
  EXPECT_GT(flood.shed, 0u);
  EsmClient client(serve::loopback_channel(channel), Protocol::esm1);
  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "shed"), flood.shed);
  EXPECT_EQ(stat(stats, "requests"),
            stat(stats, "hits") + stat(stats, "misses") +
                stat(stats, "errors"));
}

TEST(OverloadTest, SustainedPressureEntersDegradedMode) {
  // Queue cap 8 -> pressure threshold 4. A pinned batcher plus a full
  // queue holds depth >= 4 across many rounds, so the server must record
  // at least one degraded-mode entry, then recover (gauge back to 0).
  ServeConfig config = serve_config(artifact());
  config.cache_capacity = 0;
  config.max_batch = 1;
  config.max_queue = 8;
  Harness harness(config);
  EsmClient client = harness.client(Protocol::esm1);

  const std::string slow = batch_payload(600);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(client.submit("predict_batch", slow));
  const std::vector<std::string> pool = arch_pool(64);
  for (const std::string& spec : pool) ids.push_back(client.submit("predict", spec));
  for (const std::uint64_t id : ids) client.await(id);

  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_GE(stat(stats, "degraded_entries"), 1u);
  EXPECT_EQ(stat(stats, "degraded"), 0u) << "gauge must clear after drain";
  EXPECT_EQ(stat(stats, "requests"),
            stat(stats, "hits") + stat(stats, "misses") +
                stat(stats, "errors"));
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

  bool receive_some(std::string& out) override {
    bool timed_out = false;
    return receive_some_for(out, -1, &timed_out);
  }

  bool receive_some_for(std::string& out, int /*timeout_ms*/,
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
  // Against a real overloaded server: queue cap 1 plus a pinned batcher
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
    const std::string slow = batch_payload(400);
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
  EXPECT_EQ(stat(stats, "requests"),
            stat(stats, "hits") + stat(stats, "misses") +
                stat(stats, "errors"));
  EXPECT_EQ(stat(stats, "errors"), stat(stats, "shed"));
}

}  // namespace
}  // namespace esm
