// Tests for the online prediction server (src/serve/), driven through the
// event loop on an fd-less loopback listener with EsmClient over esm1:
// protocol round trip for every verb, a malformed/oversized request matrix
// that must yield structured errors (never a crash), the headline
// concurrency pin — 10k requests from 8 concurrent clients, zero drops,
// every response bit-identical to offline predict_all, stats counters
// reconciling exactly — cache hit/miss bit-identity, hot reload without
// dropping in-flight requests, the cache/metrics building blocks, and
// fleet mode: manifest-served multi-model routing (concurrent routed
// predictions bit-identical to each model's offline predict_all),
// per-model stats that sum exactly to the fleet-wide totals,
// all-or-nothing reload that keeps the old fleet on a corrupt artifact,
// and warm-cache carry-over for unchanged models.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "serve/cache.hpp"
#include "serve/fleet.hpp"
#include "serve/metrics.hpp"
#include "serve_harness.hpp"

namespace esm {
namespace {

using serve::EsmClient;
using serve::ParsedResponse;
using serve::PredictionServer;

/// Artifact A (labels = true latency), B and C (perturbed labels), built
/// once each.
const std::string& artifact_a() {
  static const std::string path = build_artifact("serve_a.esm");
  return path;
}
const std::string& artifact_b() {
  static const std::string path =
      build_artifact("serve_b.esm", rtx4090_spec(), 30, 1.37, 0.5);
  return path;
}
const std::string& artifact_c() {
  static const std::string path =
      build_artifact("serve_c.esm", rtx4090_spec(), 30, 0.8, 1.1);
  return path;
}

/// Writes a fleet manifest under TempDir listing (name, artifact) pairs;
/// the first pair becomes the default model. `bad_crc_for` deliberately
/// mis-states that entry's expected CRC, for all-or-nothing reload tests.
std::string write_fleet_manifest(
    const std::string& file,
    const std::vector<std::pair<std::string, std::string>>& models,
    const std::string& bad_crc_for = "") {
  serve::FleetManifest manifest;
  for (const auto& [name, artifact] : models) {
    serve::ManifestEntry entry;
    entry.name = name;
    entry.crc32_hex = name == bad_crc_for
                          ? std::string("deadbeef")
                          : serve::file_crc32_hex(artifact);
    entry.path = artifact;  // absolute TempDir paths need no resolution
    manifest.upsert(entry);
  }
  const std::string path = testing::TempDir() + "/" + file;
  serve::write_manifest_atomic(manifest, path);
  return path;
}

/// Sums `model.<name>.<counter>` over every per-model stats section.
std::uint64_t model_stat_sum(const std::map<std::string, std::string>& kv,
                             const std::string& counter) {
  const std::string suffix = "." + counter;
  std::uint64_t sum = 0;
  for (const auto& [key, value] : kv) {
    if (key.rfind("model.", 0) == 0 && key.size() >= suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += std::stoull(value);
    }
  }
  return sum;
}

// ---------------------------------------------------- parse_arch_request

TEST(ParseArchRequestTest, ParsesDepthListWithDefaults) {
  const SupernetSpec spec = resnet_spec();
  const ArchConfig arch = serve::parse_arch_request(spec, "3,5,2,7");
  EXPECT_EQ(arch.depths(), (std::vector<int>{3, 5, 2, 7}));
  EXPECT_EQ(arch.units[0].blocks[0].kernel, spec.kernel_options.front());
  EXPECT_EQ(arch.units[0].blocks[0].expansion, spec.expansion_options.front());
  spec.validate(arch);
}

TEST(ParseArchRequestTest, ToleratesSpacesBetweenUnits) {
  const SupernetSpec spec = resnet_spec();
  EXPECT_EQ(serve::parse_arch_request(spec, " 3, 5, 2, 7 ").depths(),
            (std::vector<int>{3, 5, 2, 7}));
}

TEST(ParseArchRequestTest, ParsesPerUnitKernelAndExpansion) {
  const SupernetSpec spec = resnet_spec();
  const ArchConfig arch =
      serve::parse_arch_request(spec, "3:k5,5:k7e0.667,2,7:k3e1");
  EXPECT_EQ(arch.units[0].blocks[0].kernel, 5);
  EXPECT_EQ(arch.units[1].blocks[0].kernel, 7);
  // "0.667" snaps to the exact 2/3 option, so validate()'s 1e-9 comparison
  // passes and the config bit-matches one built from the real option.
  EXPECT_EQ(arch.units[1].blocks[0].expansion, 2.0 / 3.0);
  EXPECT_EQ(arch.units[3].blocks[0].expansion, 1.0);
  spec.validate(arch);
}

TEST(ParseArchRequestTest, RejectsMalformedRequests) {
  const SupernetSpec spec = resnet_spec();
  EXPECT_THROW(serve::parse_arch_request(spec, ""), ConfigError);
  EXPECT_THROW(serve::parse_arch_request(spec, "banana"), ConfigError);
  EXPECT_THROW(serve::parse_arch_request(spec, "3,5"), ConfigError);
  EXPECT_THROW(serve::parse_arch_request(spec, "3,5,2,7,1"), ConfigError);
  EXPECT_THROW(serve::parse_arch_request(spec, "9,5,2,7"), ConfigError);
  EXPECT_THROW(serve::parse_arch_request(spec, "0,5,2,7"), ConfigError);
  EXPECT_THROW(serve::parse_arch_request(spec, "-3,5,2,7"), ConfigError);
  EXPECT_THROW(serve::parse_arch_request(spec, "3,,2,7"), ConfigError);
  EXPECT_THROW(serve::parse_arch_request(spec, "3:k4,5,2,7"), ConfigError);
  EXPECT_THROW(serve::parse_arch_request(spec, "3:e1,5,2,7"), ConfigError);
  EXPECT_THROW(serve::parse_arch_request(spec, "3:k5e0.9,5,2,7"), ConfigError);
}

// ------------------------------------------------------ protocol framing

TEST(ProtocolTest, ResponseFormatRoundTrips) {
  ParsedResponse parsed;
  ASSERT_TRUE(serve::parse_response(serve::format_ok("predict", "1.5"),
                                    parsed));
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.verb_or_code, "predict");
  EXPECT_EQ(parsed.payload, "1.5");

  ASSERT_TRUE(serve::parse_response(
      serve::format_error(serve::ErrorCode::bad_arch, "unit 0\nbad"), parsed));
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.verb_or_code, "bad_arch");
  EXPECT_EQ(parsed.payload, "unit 0 bad");  // newline sanitized to a space

  EXPECT_FALSE(serve::parse_response("hello world", parsed));
  EXPECT_FALSE(serve::parse_response("esm2 ok predict 1", parsed));
}

TEST(ProtocolTest, SplitRequestSeparatesVerbAndPayload) {
  EXPECT_EQ(serve::split_request("predict 3,5,2,7").verb, "predict");
  EXPECT_EQ(serve::split_request("predict 3,5,2,7").payload, "3,5,2,7");
  EXPECT_EQ(serve::split_request("stats").verb, "stats");
  EXPECT_EQ(serve::split_request("stats").payload, "");
  EXPECT_EQ(serve::split_request("stats\r").verb, "stats");
  EXPECT_EQ(serve::split_request("").verb, "");
}

TEST(ProtocolTest, FormatLatencyRoundTripsDoublesExactly) {
  const double value = 1.23456789012345678e-3;
  EXPECT_EQ(std::strtod(serve::format_latency(value).c_str(), nullptr), value);
}

// ------------------------------------------------------- cache + metrics

TEST(PredictionCacheTest, EvictsLeastRecentlyUsedPerShard) {
  serve::PredictionCache cache(2, 1);
  cache.put("a", 1.0);
  cache.put("b", 2.0);
  EXPECT_EQ(cache.get("a"), 1.0);  // refreshes a
  cache.put("c", 3.0);             // evicts b
  EXPECT_EQ(cache.get("a"), 1.0);
  EXPECT_EQ(cache.get("c"), 3.0);
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PredictionCacheTest, ZeroCapacityDisablesCaching) {
  serve::PredictionCache cache(0);
  cache.put("a", 1.0);
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LatencyHistogramTest, PercentilesAreOrderedAndCounted) {
  serve::LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record_us(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.percentile_us(50);
  const double p95 = h.percentile_us(95);
  const double p99 = h.percentile_us(99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

// ------------------------------------------------------------ the server

TEST(ServeTest, RoundTripForEveryVerb) {
  Harness harness(serve_config(artifact_a()));
  EsmClient client = harness.client();

  const std::vector<std::string> specs = {"3,5,2,7", "1,1,1,1",
                                          "7:k7e1,7:k5,7,7"};
  const std::map<std::string, double> expected =
      offline_predictions(artifact_a(), specs);

  EXPECT_EQ(client.predict(specs[0]), expected.at(specs[0]));

  const std::vector<double> batch = client.predict_batch({specs[1], specs[2]});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], expected.at(specs[1]));
  EXPECT_EQ(batch[1], expected.at(specs[2]));

  const std::map<std::string, std::string> info = client.info();
  EXPECT_EQ(info.at("proto"), "1");
  EXPECT_EQ(info.at("kind"), "gbdt");
  EXPECT_EQ(info.at("encoder"), "fcc");
  EXPECT_EQ(info.at("space"), "ResNet");
  EXPECT_EQ(info.at("generation"), "1");
  EXPECT_EQ(info.at("artifact"), artifact_a());
  EXPECT_EQ(info.at("artifact_crc32").size(), 8u);

  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "requests"), 2u);
  EXPECT_EQ(stat(stats, "errors"), 0u);
  EXPECT_EQ(stat(stats, "archs"), 3u);

  client.reload(artifact_a());
  EXPECT_EQ(client.info().at("generation"), "2");
  EXPECT_TRUE(std::isfinite(client.predict("3,5,2,7")));

  // shutdown drains the loop, which closes the listener.
  client.shutdown();
  harness.thread.join();
  EXPECT_EQ(harness.listener->connect(), nullptr);
}

TEST(ServeTest, MalformedRequestsYieldStructuredErrorsNeverACrash) {
  Harness harness(serve_config(artifact_a()));
  EsmClient client = harness.client();

  // Each row: the request, its error code, and the stats section its one
  // error lands on ("" = a control line).
  struct Row {
    std::string request;
    std::string code;
    std::string section;
  };
  const std::vector<Row> matrix = {
      {"", "bad_request", ""},
      {"predict", "bad_request", "_unrouted"},
      // "banana" starts with a letter, so fleet routing reads it as a model
      // key — unknown key, structured error (the keyless grammar is only
      // ambiguous for payloads that could never be an architecture).
      {"predict banana", "unknown_model", "_unrouted"},
      {"predict 3,5", "bad_arch", "default"},
      {"predict 9,9,9,9", "bad_arch", "default"},
      {"predict 0,5,2,7", "bad_arch", "default"},
      {"predict 3,,2,7", "bad_arch", "default"},
      {"predict 3:k4,5,2,7", "bad_arch", "default"},
      {"predict_batch", "bad_request", "_unrouted"},
      {"predict_batch ;", "bad_arch", "default"},
      {"predict_batch 3,5,2,7;banana", "bad_arch", "default"},
      {"flarp 1", "unknown_verb", ""},
      {"\x01\x02garbage", "unknown_verb", ""},
      {"info extra", "unknown_model", ""},
      {"stats now", "bad_request", ""},
      {"shutdown now", "bad_request", ""},
      {"reload", "bad_request", ""},
      {"reload /nonexistent/model.esm", "reload_failed", ""},
      {"predict " + std::string(70 * 1024, '1'), "oversized", "_unrouted"},
      {"predict_batch " + std::string(70 * 1024, '1'), "oversized",
       "_unrouted"},
  };
  for (const Row& row : matrix) {
    SCOPED_TRACE("request '" + row.request.substr(0, 40) + "'");
    const serve::MetricsSnapshot before = harness.server.metrics();
    const EsmClient::Response response = client.call_line(row.request);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.verb_or_code, row.code) << response.payload;
    expect_one_error(before, harness.server.metrics(), row.code,
                     row.section);
  }

  // The connection survives the whole matrix: a good request still works
  // (and "shutdown now" must not have begun a drain: the listener still
  // accepts).
  EXPECT_NE(harness.listener->connect(), nullptr);
  EXPECT_TRUE(std::isfinite(client.predict("3,5,2,7")));

  // Counters reconcile: every prediction line is exactly one of
  // hit/miss/error; control-verb errors are tracked separately.
  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "requests"),
            stat(stats, "hits") + stat(stats, "misses") +
                stat(stats, "errors"));
  EXPECT_EQ(stat(stats, "requests"), 13u);  // 12 bad + 1 good predict lines
  EXPECT_EQ(stat(stats, "errors"), 12u);
  EXPECT_EQ(stat(stats, "hits"), 0u);
  EXPECT_EQ(stat(stats, "misses"), 1u);
  EXPECT_EQ(stat(stats, "control_errors"), 8u);
}

// Headline pin (acceptance criterion): 10k requests from 8 concurrent
// in-process clients complete with zero drops, every response bit-identical
// to offline predict_all on the same artifact, and the stats counters
// reconcile exactly.
TEST(ServeTest, TenThousandRequestsFromEightClientsBitIdenticalToOffline) {
  const std::vector<std::string> pool = arch_pool(311);
  const std::map<std::string, double> expected =
      offline_predictions(artifact_a(), pool);

  Harness harness(serve_config(artifact_a()));
  constexpr int kClients = 8;
  constexpr int kPerClient = 1250;

  std::vector<EsmClient> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) clients.push_back(harness.client());

  std::atomic<int> answered{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // Deterministic per-client walk over the shared pool: plenty of
      // cross-client repetition, so the cache and the coalescer both see
      // real traffic.
      for (int i = 0; i < kPerClient; ++i) {
        const std::string& arch =
            pool[(static_cast<std::size_t>(c) * 7919 +
                  static_cast<std::size_t>(i) * 13) %
                 pool.size()];
        const double value = clients[static_cast<std::size_t>(c)].predict(arch);
        answered.fetch_add(1, std::memory_order_relaxed);
        if (value != expected.at(arch)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Zero drops, zero deviations from the offline predictions.
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(mismatches.load(), 0);

  const std::map<std::string, std::string> stats = clients[0].stats();
  EXPECT_EQ(stat(stats, "requests"),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stat(stats, "errors"), 0u);
  // Exact reconciliation, line- and arch-level.
  EXPECT_EQ(stat(stats, "requests"),
            stat(stats, "hits") + stat(stats, "misses") +
                stat(stats, "errors"));
  EXPECT_EQ(stat(stats, "archs"),
            stat(stats, "arch_hits") + stat(stats, "arch_misses"));
  // Every arch miss went through exactly one coalesced dispatch.
  EXPECT_EQ(stat(stats, "batched_archs"), stat(stats, "arch_misses"));
  EXPECT_GE(stat(stats, "batches"), 1u);
  // 311 distinct archs, one generation. Two clients can miss the same arch
  // concurrently (both check the cache before either's result lands), so
  // allow a small overage — but never anywhere near one miss per request.
  EXPECT_GE(stat(stats, "arch_misses"), 311u);
  EXPECT_LE(stat(stats, "arch_misses"), 311u + kClients * 8u);
  EXPECT_GE(stat(stats, "arch_hits"),
            static_cast<std::uint64_t>(kClients * kPerClient) - 311u -
                kClients * 8u);
}

TEST(ServeTest, CacheHitReturnsBitIdenticalValueToMissPath) {
  Harness harness(serve_config(artifact_a()));
  EsmClient client = harness.client();

  const EsmClient::Response miss = client.call_line("predict 4,2,6,1");
  const EsmClient::Response hit = client.call_line("predict 4,2,6,1");
  ASSERT_TRUE(miss.ok);
  ASSERT_TRUE(hit.ok);
  // The full response line is identical, so the doubles are bit-identical.
  EXPECT_EQ(miss.payload, hit.payload);

  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "hits"), 1u);
  EXPECT_EQ(stat(stats, "misses"), 1u);
  EXPECT_EQ(stat(stats, "cache_size"), 1u);
}

TEST(ServeTest, PredictBatchMatchesOfflinePredictAll) {
  const std::vector<std::string> specs = {"3,5,2,7", "1,1,1,1", "7,7,7,7",
                                          "2,4,6,1"};
  const std::map<std::string, double> expected =
      offline_predictions(artifact_a(), specs);

  Harness harness(serve_config(artifact_a()));
  EsmClient client = harness.client();
  const std::vector<double> values = client.predict_batch(specs);
  ASSERT_EQ(values.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(values[i], expected.at(specs[i])) << specs[i];
  }

  // A second identical batch is answered entirely from cache — same bits.
  const std::vector<double> again = client.predict_batch(specs);
  EXPECT_EQ(again, values);
  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "hits"), 1u);
  EXPECT_EQ(stat(stats, "misses"), 1u);
}

TEST(ServeTest, HotReloadSwapsModelsWithoutDroppingInflightRequests) {
  const std::vector<std::string> pool = arch_pool(97);
  const std::map<std::string, double> expected_a =
      offline_predictions(artifact_a(), pool);
  const std::map<std::string, double> expected_b =
      offline_predictions(artifact_b(), pool);
  // The two artifacts genuinely disagree, otherwise this proves nothing.
  ASSERT_NE(expected_a.at(pool[0]), expected_b.at(pool[0]));

  Harness harness(serve_config(artifact_a()));
  EsmClient worker = harness.client();
  EsmClient admin = harness.client();

  constexpr int kRequests = 400;
  std::atomic<int> answered{0};
  std::atomic<int> off_model{0};
  std::thread traffic([&] {
    for (int i = 0; i < kRequests; ++i) {
      const std::string& arch = pool[static_cast<std::size_t>(i) % pool.size()];
      const double value = worker.predict(arch);
      answered.fetch_add(1, std::memory_order_relaxed);
      // Every response comes from the old model or the new one — never a
      // torn value, never a stale cache entry misattributed to the new
      // generation.
      if (value != expected_a.at(arch) && value != expected_b.at(arch)) {
        off_model.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  admin.reload(artifact_b());
  traffic.join();

  EXPECT_EQ(answered.load(), kRequests);
  EXPECT_EQ(off_model.load(), 0);

  // After the swap every fresh request is priced by the new model,
  // bit-identically to its offline predictions.
  for (const std::string& arch : {pool[0], pool[50], pool[96]}) {
    EXPECT_EQ(admin.predict(arch), expected_b.at(arch)) << arch;
  }
  const std::map<std::string, std::string> info = admin.info();
  EXPECT_EQ(info.at("generation"), "2");
  EXPECT_EQ(info.at("reloads"), "1");
  EXPECT_EQ(info.at("artifact"), artifact_b());
}

TEST(ServeTest, FailedReloadKeepsServingTheOldModel) {
  const std::vector<std::string> specs = {"3,5,2,7"};
  const std::map<std::string, double> expected =
      offline_predictions(artifact_a(), specs);

  Harness harness(serve_config(artifact_a()));
  EsmClient client = harness.client();
  EXPECT_EQ(client.predict("3,5,2,7"), expected.at("3,5,2,7"));

  const EsmClient::Response bad =
      client.call_line("reload /nonexistent/path.esm");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.verb_or_code, "reload_failed");

  EXPECT_EQ(client.predict("3,5,2,7"), expected.at("3,5,2,7"));
  EXPECT_EQ(client.info().at("generation"), "1");
}

TEST(ServeTest, ConstructorRejectsMissingArtifact) {
  EXPECT_THROW(PredictionServer(serve_config("/nonexistent/model.esm")),
               ConfigError);
}

TEST(ServeTest, ConstructorRejectsZeroMaxBatch) {
  // A round of 0 archs would never drain the queue: every miss would hang.
  serve::ServeConfig config = serve_config(artifact_a());
  config.max_batch = 0;
  EXPECT_THROW(PredictionServer{config}, ConfigError);
}

// -------------------------------------------------------------- fleet mode

// Headline fleet pin (acceptance criterion): a three-model fleet answers
// concurrent routed predictions bit-identically to each model's offline
// predict_all, and every per-model stats section sums exactly to the
// fleet-wide totals.
TEST(FleetServeTest, ThreeModelRoutedPredictionsBitIdenticalToOffline) {
  const std::string manifest = write_fleet_manifest(
      "fleet3.esmf", {{"alpha", artifact_a()},
                      {"bravo", artifact_b()},
                      {"charlie", artifact_c()}});
  const std::vector<std::string> pool = arch_pool(97);
  const std::map<std::string, std::map<std::string, double>> expected = {
      {"alpha", offline_predictions(artifact_a(), pool)},
      {"bravo", offline_predictions(artifact_b(), pool)},
      {"charlie", offline_predictions(artifact_c(), pool)}};
  // Models agreeing on an arch would blunt the misrouting check.
  ASSERT_NE(expected.at("alpha").at(pool[0]), expected.at("bravo").at(pool[0]));
  ASSERT_NE(expected.at("bravo").at(pool[0]),
            expected.at("charlie").at(pool[0]));

  Harness harness(serve_config(manifest));
  constexpr int kClients = 6;
  constexpr int kPerClient = 400;
  static const char* kNames[3] = {"alpha", "bravo", "charlie"};

  std::vector<EsmClient> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) clients.push_back(harness.client());

  std::atomic<int> answered{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // Every client rotates through all three models, so each flush()
      // round mixes routes and the per-model group dispatch is exercised.
      for (int i = 0; i < kPerClient; ++i) {
        const std::string model = kNames[(c + i) % 3];
        const std::string& arch =
            pool[(static_cast<std::size_t>(c) * 7919 +
                  static_cast<std::size_t>(i) * 13) %
                 pool.size()];
        const double value =
            clients[static_cast<std::size_t>(c)].predict(model, arch);
        answered.fetch_add(1, std::memory_order_relaxed);
        if (value != expected.at(model).at(arch)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(clients[0].models(),
            (std::vector<std::string>{"alpha", "bravo", "charlie"}));

  const std::map<std::string, std::string> stats = clients[0].stats();
  EXPECT_EQ(stat(stats, "requests"),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stat(stats, "errors"), 0u);
  EXPECT_EQ(stat(stats, "requests"),
            stat(stats, "hits") + stat(stats, "misses") +
                stat(stats, "errors"));
  EXPECT_EQ(stat(stats, "archs"),
            stat(stats, "arch_hits") + stat(stats, "arch_misses"));
  EXPECT_EQ(stat(stats, "batched_archs"), stat(stats, "arch_misses"));
  // Per-model sections sum to the fleet totals exactly — every global
  // increment is paired with exactly one section increment.
  for (const char* counter : {"requests", "hits", "misses", "errors", "archs",
                              "arch_hits", "arch_misses"}) {
    EXPECT_EQ(model_stat_sum(stats, counter), stat(stats, counter)) << counter;
  }
  // The rotation routes exactly a third of the traffic to each model.
  EXPECT_EQ(stat(stats, "model.alpha.requests"),
            static_cast<std::uint64_t>(kClients * kPerClient / 3));
  EXPECT_EQ(stat(stats, "model.charlie.requests"),
            static_cast<std::uint64_t>(kClients * kPerClient / 3));
}

TEST(FleetServeTest, KeylessRequestsRouteToTheDefaultModel) {
  const std::string manifest = write_fleet_manifest(
      "fleet_default.esmf",
      {{"alpha", artifact_a()}, {"bravo", artifact_b()}});
  const std::vector<std::string> specs = {"3,5,2,7", "1,1,1,1"};
  const std::map<std::string, double> expected_a =
      offline_predictions(artifact_a(), specs);
  const std::map<std::string, double> expected_b =
      offline_predictions(artifact_b(), specs);

  Harness harness(serve_config(manifest));
  EsmClient client = harness.client();

  // The PR-5 keyless protocol stays valid against a manifest-served fleet:
  // keyless lines hit the default model.
  EXPECT_EQ(client.predict(specs[0]), expected_a.at(specs[0]));
  const std::vector<double> batch = client.predict_batch({specs[0], specs[1]});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], expected_a.at(specs[0]));
  EXPECT_EQ(batch[1], expected_a.at(specs[1]));

  // Routed lines hit the named model.
  EXPECT_EQ(client.predict("bravo", specs[0]), expected_b.at(specs[0]));
  const std::vector<double> routed =
      client.predict_batch("bravo", {specs[0], specs[1]});
  ASSERT_EQ(routed.size(), 2u);
  EXPECT_EQ(routed[0], expected_b.at(specs[0]));
  EXPECT_EQ(routed[1], expected_b.at(specs[1]));

  const std::map<std::string, std::string> info = client.info();
  EXPECT_EQ(info.at("model"), "alpha");
  EXPECT_EQ(info.at("default"), "alpha");
  EXPECT_EQ(info.at("models"), "2");
  EXPECT_EQ(info.at("manifest"), manifest);
  EXPECT_EQ(info.at("manifest_crc32").size(), 8u);
  const std::map<std::string, std::string> info_b = client.info("bravo");
  EXPECT_EQ(info_b.at("model"), "bravo");
  EXPECT_EQ(info_b.at("artifact"), artifact_b());
}

TEST(FleetServeTest, UnknownModelKeysYieldStructuredErrors) {
  const std::string manifest =
      write_fleet_manifest("fleet_unknown.esmf", {{"alpha", artifact_a()}});
  Harness harness(serve_config(manifest));
  EsmClient client = harness.client();

  for (const char* request : {"predict nosuch 3,5,2,7",
                              "predict_batch nosuch 3,5,2,7;1,1,1,1",
                              "info nosuch"}) {
    const EsmClient::Response response = client.call_line(request);
    EXPECT_FALSE(response.ok) << request;
    EXPECT_EQ(response.verb_or_code, "unknown_model") << request;
    EXPECT_NE(response.payload.find("nosuch"), std::string::npos) << request;
  }

  // The two failed prediction lines land in the _unrouted pseudo-section
  // (the info failure is a control error); the totals still reconcile.
  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "model._unrouted.errors"), 2u);
  EXPECT_EQ(stat(stats, "errors"), 2u);
  EXPECT_EQ(stat(stats, "control_errors"), 1u);
  EXPECT_EQ(stat(stats, "requests"),
            stat(stats, "hits") + stat(stats, "misses") +
                stat(stats, "errors"));
}

// Acceptance criterion: a reload whose manifest references one corrupt
// artifact changes nothing — same models, same generations, same answers.
TEST(FleetServeTest, ReloadWithOneCorruptArtifactChangesNothing) {
  const std::string manifest = write_fleet_manifest(
      "fleet_good.esmf", {{"alpha", artifact_a()}, {"bravo", artifact_b()}});
  const std::vector<std::string> specs = {"3,5,2,7"};
  const std::map<std::string, double> expected_a =
      offline_predictions(artifact_a(), specs);
  const std::map<std::string, double> expected_b =
      offline_predictions(artifact_b(), specs);

  Harness harness(serve_config(manifest));
  EsmClient client = harness.client();
  EXPECT_EQ(client.predict("alpha", specs[0]), expected_a.at(specs[0]));
  EXPECT_EQ(client.predict("bravo", specs[0]), expected_b.at(specs[0]));
  const std::string gen_before = client.info("bravo").at("generation");

  // A three-model manifest whose new entry lies about its artifact's CRC.
  const std::string bad = write_fleet_manifest(
      "fleet_bad.esmf",
      {{"alpha", artifact_a()},
       {"bravo", artifact_b()},
       {"charlie", artifact_c()}},
      /*bad_crc_for=*/"charlie");
  const EsmClient::Response response = client.call_line("reload " + bad);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.verb_or_code, "reload_failed");
  // The error names the offending entry.
  EXPECT_NE(response.payload.find("charlie"), std::string::npos)
      << response.payload;

  EXPECT_EQ(client.models(), (std::vector<std::string>{"alpha", "bravo"}));
  EXPECT_EQ(client.predict("alpha", specs[0]), expected_a.at(specs[0]));
  EXPECT_EQ(client.predict("bravo", specs[0]), expected_b.at(specs[0]));
  EXPECT_EQ(client.info("bravo").at("generation"), gen_before);
  EXPECT_EQ(client.info().at("reloads"), "0");

  // A truthful manifest then swaps in the third model atomically, and the
  // unchanged models carry over untouched.
  const std::string good = write_fleet_manifest(
      "fleet_good3.esmf", {{"alpha", artifact_a()},
                           {"bravo", artifact_b()},
                           {"charlie", artifact_c()}});
  client.reload(good);
  EXPECT_EQ(client.models(),
            (std::vector<std::string>{"alpha", "bravo", "charlie"}));
  EXPECT_EQ(client.predict("charlie", specs[0]),
            offline_predictions(artifact_c(), specs).at(specs[0]));
  EXPECT_EQ(client.info("bravo").at("generation"), gen_before);
}

TEST(FleetServeTest, TornManifestReloadKeepsTheOldFleetServing) {
  const std::string manifest =
      write_fleet_manifest("fleet_torn_base.esmf", {{"alpha", artifact_a()}});
  Harness harness(serve_config(manifest));
  EsmClient client = harness.client();
  const double before = client.predict("alpha", "3,5,2,7");

  // Torn mid-write: the magic line made it to disk, nothing else did.
  const std::string torn = testing::TempDir() + "/fleet_torn.esmf";
  write_file_atomic(torn, std::string(serve::kManifestMagic) + "\n");
  const EsmClient::Response response = client.call_line("reload " + torn);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.verb_or_code, "reload_failed");

  EXPECT_EQ(client.predict("alpha", "3,5,2,7"), before);
  EXPECT_EQ(client.info().at("generation"), "1");
}

TEST(FleetServeTest, UnchangedModelsKeepTheirWarmCacheAcrossReload) {
  const std::string manifest = write_fleet_manifest(
      "fleet_warm.esmf", {{"alpha", artifact_a()}, {"bravo", artifact_b()}});
  Harness harness(serve_config(manifest));
  EsmClient client = harness.client();

  const EsmClient::Response miss = client.call_line("predict alpha 4,2,6,1");
  ASSERT_TRUE(miss.ok);

  // bravo's artifact changes (new CRC); alpha's entry is untouched.
  const std::string swapped = write_fleet_manifest(
      "fleet_warm2.esmf", {{"alpha", artifact_a()}, {"bravo", artifact_c()}});
  client.reload(swapped);

  // alpha answers from its carried-over cache — bit-identical, and a hit.
  const EsmClient::Response hit = client.call_line("predict alpha 4,2,6,1");
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(hit.payload, miss.payload);
  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "model.alpha.hits"), 1u);
  EXPECT_EQ(stat(stats, "model.alpha.misses"), 1u);
  // alpha kept its generation; bravo (same name, new bytes) got a fresh one.
  EXPECT_EQ(client.info("alpha").at("generation"), "1");
  EXPECT_EQ(client.info("bravo").at("generation"), "3");
}

TEST(FleetServeTest, StatsListTheModelsRequestsReachedAcrossReloads) {
  // Sections are resolved when a fleet loads but listed only once a
  // request routes to their model, and they outlive the model's removal.
  const std::string manifest = write_fleet_manifest(
      "fleet_sections.esmf",
      {{"alpha", artifact_a()}, {"bravo", artifact_b()}});
  Harness harness(serve_config(manifest));
  EsmClient client = harness.client();
  ASSERT_TRUE(client.call_line("predict alpha 4,2,6,1").ok);
  std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "model.alpha.requests"), 1u);
  EXPECT_EQ(stats.count("model.bravo.requests"), 0u);

  client.reload(write_fleet_manifest("fleet_sections2.esmf",
                                     {{"bravo", artifact_b()}}));
  stats = client.stats();
  EXPECT_EQ(stat(stats, "model.alpha.requests"), 1u);
  EXPECT_EQ(stats.count("model.bravo.requests"), 0u);
  ASSERT_TRUE(client.call_line("predict 4,2,6,1").ok);
  stats = client.stats();
  EXPECT_EQ(stat(stats, "model.bravo.requests"), 1u);
  EXPECT_EQ(stat(stats, "requests"), 2u);
}

/// Counts the invocations of one ReplyCallback, so a request answered
/// twice (or never) shows.
struct CompletionProbe {
  std::atomic<int> calls{0};
  std::atomic<bool> ok{false};
};

/// A ReplyCallback feeding `probe`; throws on its first call when
/// `throw_first` is set.
serve::ReplyCallback probe_callback(std::shared_ptr<CompletionProbe> probe,
                                    bool throw_first) {
  return [probe = std::move(probe), throw_first](serve::Reply&& reply) {
    probe->ok.store(reply.ok);
    if (probe->calls.fetch_add(1) == 0 && throw_first) {
      throw std::runtime_error("completion failed");
    }
  };
}

/// Waits up to 10 s for a first call; false if none came.
bool await_first_call(const CompletionProbe& probe) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (probe.calls.load() == 0) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ServeTest, ThrowingCompletionIsInvokedExactlyOnce) {
  // A ReplyCallback that throws must not make flush() answer its entry,
  // or the entries coalesced with it, a second time, nor leave a later
  // line of its round unanswered; likewise for the search worker.
  PredictionServer server(serve_config(artifact_a()));
  const std::vector<std::string> pool = arch_pool(16);  // distinct misses
  std::size_t next = 0;
  const auto submit = [&](serve::ReplyCallback done) {
    serve::ParsedRequest request;
    request.verb = "predict";
    request.payload = pool.at(next++);
    server.handle_request(request, request.payload.size(), std::move(done));
  };

  // Alone: one miss whose completion throws.
  const auto lone = std::make_shared<CompletionProbe>();
  submit(probe_callback(lone, true));
  EXPECT_FALSE(server.flush());
  ASSERT_TRUE(await_first_call(*lone));

  // Coalesced: four misses drain into one round, and the second one's
  // completion throws before the last two are answered.
  std::vector<std::shared_ptr<CompletionProbe>> round;
  for (int i = 0; i < 4; ++i) {
    round.push_back(std::make_shared<CompletionProbe>());
    submit(probe_callback(round.back(), i == 1));
  }
  EXPECT_FALSE(server.flush());
  for (const auto& probe : round) ASSERT_TRUE(await_first_call(*probe));

  // A later miss is served. Its round runs after every earlier one, so a
  // second invocation would have landed by now.
  const auto after = std::make_shared<CompletionProbe>();
  submit(probe_callback(after, false));
  EXPECT_FALSE(server.flush());
  ASSERT_TRUE(await_first_call(*after));
  EXPECT_TRUE(after->ok.load());

  // The search worker keeps the same rule: a throwing completion is
  // invoked once, and the next search is served.
  std::vector<std::shared_ptr<CompletionProbe>> searches;
  for (int i = 0; i < 2; ++i) {
    searches.push_back(std::make_shared<CompletionProbe>());
    serve::ParsedRequest request;
    request.verb = "search";
    request.payload = "population=8 generations=1 seed=" + std::to_string(i);
    server.handle_request(request, request.payload.size(),
                          probe_callback(searches.back(), i == 0));
  }
  ASSERT_TRUE(await_first_call(*searches[1]));
  for (const auto& probe : searches) {
    EXPECT_EQ(probe->calls.load(), 1);
    EXPECT_TRUE(probe->ok.load());
  }

  EXPECT_EQ(lone->calls.load(), 1);
  for (const auto& probe : round) {
    EXPECT_EQ(probe->calls.load(), 1);
    EXPECT_TRUE(probe->ok.load());
  }
  const serve::MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.max_batch, 4u) << "the four misses did not coalesce";
  EXPECT_EQ(snap.requests, 8u);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_EQ(snap.requests, snap.hits + snap.misses + snap.errors);

  // Inline answers keep the rule too: a throwing callback on a cache hit,
  // on a control verb and on an inline error is invoked once, and the
  // line is counted once.
  const auto inline_line = [&](const std::string& line) {
    const auto probe = std::make_shared<CompletionProbe>();
    server.handle_request(serve::split_request(line), line.size(),
                          probe_callback(probe, true));
    return probe;
  };
  const auto hit = inline_line("predict " + pool.front());
  const auto stats = inline_line("stats");
  const auto bad_arch = inline_line("predict 3,5");
  EXPECT_EQ(hit->calls.load(), 1);
  EXPECT_TRUE(hit->ok.load());
  EXPECT_EQ(stats->calls.load(), 1);
  EXPECT_TRUE(stats->ok.load());
  EXPECT_EQ(bad_arch->calls.load(), 1);
  EXPECT_FALSE(bad_arch->ok.load());
  const serve::MetricsSnapshot end = server.metrics();
  EXPECT_EQ(end.hits, snap.hits + 1);
  EXPECT_EQ(end.errors, 1u);
  EXPECT_EQ(end.control_requests, snap.control_requests + 1);
  EXPECT_EQ(end.control_errors, 0u);
  EXPECT_EQ(end.requests, end.hits + end.misses + end.errors);
}

TEST(ServeTest, DenseNetExpansionSpellingsShareOneEntryAndOneValue) {
  // DenseNet has no expansion options and its encoders read none, so its
  // packed cache key drops the expansion: a spelling with one and a
  // spelling without must predict the same bits and share one entry.
  const SupernetSpec spec = densenet_spec();
  Rng rng(0xDE75E);
  BalancedSampler sampler(spec, 4);
  const std::vector<ArchConfig> archs = sampler.sample_n(64, rng);
  std::vector<double> labels;
  for (const ArchConfig& arch : archs) {
    labels.push_back(0.1 * arch.total_blocks() +
                     arch.units[0].blocks[0].kernel);
  }
  GbdtConfig gbdt;
  gbdt.n_estimators = 20;
  GbdtSurrogate surrogate(make_encoder("fcc", spec), gbdt);
  surrogate.fit(SurrogateDataset{archs, labels});
  const std::string artifact = testing::TempDir() + "/serve_dense.esm";
  save_surrogate(surrogate, artifact);

  const std::string with = "9:k5e2.5,3,20:k1,1,7:k9e1";
  const std::string without = "9:k5,3,20:k1,1,7:k9";
  const double offline =
      surrogate.predict_ms(serve::parse_arch_request(spec, with));
  EXPECT_EQ(surrogate.predict_ms(serve::parse_arch_request(spec, without)),
            offline);

  Harness harness(serve_config(artifact));
  EsmClient client = harness.client();
  const EsmClient::Response first = client.call_line("predict " + with);
  const EsmClient::Response second = client.call_line("predict " + without);
  ASSERT_TRUE(first.ok) << first.payload;
  ASSERT_TRUE(second.ok) << second.payload;
  EXPECT_EQ(first.payload, serve::format_latency(offline));
  EXPECT_EQ(second.payload, first.payload);
  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stat(stats, "arch_misses"), 1u);
  EXPECT_EQ(stat(stats, "arch_hits"), 1u);
}

}  // namespace
}  // namespace esm
