// Shared fixtures for the serving suites: a small trained artifact, the
// deterministic request pool and its offline ground truth, the server +
// event loop + fd-less loopback listener harness every served test runs
// on, and a raw esm2 frame reader for assertions below EsmClient.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "encoding/encoder.hpp"
#include "hwsim/device.hpp"
#include "ml/gbdt.hpp"
#include "nets/builder.hpp"
#include "nets/sampler.hpp"
#include "nets/supernet.hpp"
#include "serve/client.hpp"
#include "serve/event_loop.hpp"
#include "serve/frame.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "surrogate/gbdt_surrogate.hpp"
#include "surrogate/registry.hpp"

namespace esm {

/// Trains a GBDT on 64 balanced samples of `spec` (ResNet by default)
/// labelled with `device`'s true latency and saves it under TempDir.
/// `label_scale`/`label_shift` perturb the labels so variants genuinely
/// disagree (reload tests).
inline std::string build_artifact(const std::string& name,
                                  const DeviceSpec& device = rtx4090_spec(),
                                  int estimators = 30,
                                  double label_scale = 1.0,
                                  double label_shift = 0.0,
                                  const SupernetSpec& spec = resnet_spec()) {
  SimulatedDevice sim(device, 7);
  Rng rng(0x5eed);
  BalancedSampler sampler(spec, 4);
  const std::vector<ArchConfig> archs = sampler.sample_n(64, rng);
  std::vector<double> labels;
  labels.reserve(archs.size());
  for (const ArchConfig& arch : archs) {
    labels.push_back(
        label_scale * sim.true_latency_ms(build_graph(spec, arch)) +
        label_shift);
  }
  GbdtConfig gbdt;
  gbdt.n_estimators = estimators;
  GbdtSurrogate surrogate(make_encoder("fcc", spec), gbdt);
  surrogate.fit(SurrogateDataset{archs, labels});
  const std::string path = testing::TempDir() + "/" + name;
  save_surrogate(surrogate, path);
  return path;
}

/// The first `limit` ResNet depth combinations as request strings, each
/// unit annotated with a rotating kernel/expansion feature so distinct
/// requests map to distinct predictions (depth-only archs share too many
/// tree leaves to tell a misrouted response apart).
inline std::vector<std::string> arch_pool(std::size_t limit) {
  static const char* kFeatures[] = {"",        ":k5",       ":k7",
                                    ":k3e1",   ":k5e0.667", ":k7e1",
                                    ":k3e0.5", ":k5e1",     ":k7e0.667"};
  std::vector<std::string> pool;
  std::size_t n = 0;
  for (int a = 1; a <= 7 && pool.size() < limit; ++a)
    for (int b = 1; b <= 7 && pool.size() < limit; ++b)
      for (int c = 1; c <= 7 && pool.size() < limit; ++c)
        for (int d = 1; d <= 7 && pool.size() < limit; ++d) {
          const int depths[4] = {a, b, c, d};
          std::string request;
          for (std::size_t u = 0; u < 4; ++u) {
            if (u > 0) request += ',';
            request += std::to_string(depths[u]);
            request += kFeatures[(n + u * 3) % 9];
          }
          ++n;
          pool.push_back(std::move(request));
        }
  return pool;
}

/// The predict_batch payload for `specs` (';'-joined).
inline std::string join_batch(const std::vector<std::string>& specs) {
  std::string payload;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) payload += ';';
    payload += specs[i];
  }
  return payload;
}

/// Offline ground truth: parse each request with the shared parser and
/// price everything through one predict_all on a separately loaded model.
/// Served responses must match these bit for bit.
inline std::map<std::string, double> offline_predictions(
    const std::string& artifact, const std::vector<std::string>& specs) {
  const std::unique_ptr<TrainableSurrogate> model = load_surrogate(artifact);
  std::vector<ArchConfig> archs;
  archs.reserve(specs.size());
  for (const std::string& spec : specs) {
    archs.push_back(serve::parse_arch_request(model->spec(), spec));
  }
  const std::vector<double> values = model->predict_all(archs);
  std::map<std::string, double> expected;
  for (std::size_t i = 0; i < specs.size(); ++i) expected[specs[i]] = values[i];
  return expected;
}

inline serve::ServeConfig serve_config(const std::string& artifact) {
  serve::ServeConfig config;
  config.artifact_path = artifact;
  return config;
}

/// One counter of a stats payload.
inline std::uint64_t stat(const std::map<std::string, std::string>& kv,
                          const std::string& key) {
  const auto it = kv.find(key);
  EXPECT_NE(it, kv.end()) << "stats payload lacks " << key;
  return it == kv.end() ? 0 : std::stoull(it->second);
}

/// One per-model section of a metrics snapshot; zeros while the section
/// is not listed.
inline serve::ModelCounters section_counters(
    const serve::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [section, counters] : snap.per_model) {
    if (section == name) return counters;
  }
  return {};
}

/// Asserts what one failed request line answered `code` (its esm1 token)
/// moved between two snapshots: one `errors`, plus one `shed` only when
/// the code is `overloaded` and one `expired` only when it is
/// `deadline_exceeded`, in the totals and in `model.<section>` — or, for a
/// control line (empty `section`), one control error and no prediction
/// error. Ok lines in between move none of these counters.
inline void expect_one_error(const serve::MetricsSnapshot& before,
                             const serve::MetricsSnapshot& after,
                             const std::string& code,
                             const std::string& section) {
  const std::uint64_t line = section.empty() ? 0 : 1;
  const std::uint64_t shed = code == "overloaded" ? line : 0;
  const std::uint64_t expired = code == "deadline_exceeded" ? line : 0;
  EXPECT_EQ(after.errors - before.errors, line) << code;
  EXPECT_EQ(after.shed - before.shed, shed) << code;
  EXPECT_EQ(after.expired - before.expired, expired) << code;
  EXPECT_EQ(after.control_errors - before.control_errors, 1 - line) << code;
  if (section.empty()) return;
  const serve::ModelCounters was = section_counters(before, section);
  const serve::ModelCounters now = section_counters(after, section);
  EXPECT_EQ(now.errors - was.errors, 1u) << code << " on model." << section;
  EXPECT_EQ(now.shed - was.shed, shed) << code << " on model." << section;
  EXPECT_EQ(now.expired - was.expired, expired)
      << code << " on model." << section;
}

/// The three accounting identities every snapshot keeps: each prediction
/// line is one hit, miss or error, each arch one hit or miss, and every
/// missed arch was priced in exactly one predict_all batch.
inline void expect_identities(const serve::MetricsSnapshot& snap) {
  EXPECT_EQ(snap.requests, snap.hits + snap.misses + snap.errors);
  EXPECT_EQ(snap.archs, snap.arch_hits + snap.arch_misses);
  EXPECT_EQ(snap.batched_archs, snap.arch_misses);
}

/// Wraps the loopback listener before the loop registers it (the chaos
/// suite installs its seeded fault decorators here).
using ListenerDecorator = std::function<std::shared_ptr<serve::Listener>(
    std::shared_ptr<serve::Listener>)>;

/// Server + event loop + loopback listener, the loop running on a
/// background thread. Declaration order is the required destruction
/// order: the loop must drain before the server stops.
struct Harness {
  serve::PredictionServer server;
  serve::EventLoop loop;
  std::shared_ptr<serve::LoopbackListener> listener;
  std::thread thread;

  explicit Harness(serve::ServeConfig config,
                   serve::EventLoopConfig loop_config = {},
                   const ListenerDecorator& decorate = {})
      : server(std::move(config)),
        loop(server, std::move(loop_config)),
        listener(serve::make_loopback_listener()) {
    loop.add_listener(decorate ? decorate(listener) : listener);
    thread = std::thread([this] { loop.run(); });
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Tests that drain the loop themselves (the shutdown verb) join
  /// `thread` first; everything else is drained here.
  ~Harness() {
    loop.request_stop();
    if (thread.joinable()) thread.join();
    server.request_stop();
    server.wait();
  }

  serve::EsmClient client(serve::Protocol protocol = serve::Protocol::esm1) {
    return serve::EsmClient(listener->connect(), protocol);
  }
};

/// Reads whole esm2 frames straight off a loopback channel (for tests
/// that assert on wire order, below EsmClient's id matching).
inline serve::Frame next_frame(serve::ClientChannel& channel,
                               std::string& buffer) {
  for (;;) {
    serve::Frame frame;
    std::string error;
    const serve::FrameParse r =
        serve::parse_frame(buffer, frame, error, 64u << 20);
    if (r == serve::FrameParse::ok) return frame;
    EXPECT_EQ(r, serve::FrameParse::need_more) << error;
    EXPECT_TRUE(channel.receive_some(buffer)) << "server closed early";
    if (buffer.empty()) return frame;
  }
}

}  // namespace esm
