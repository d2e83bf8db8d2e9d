// Tests for the deterministic chaos-transport harness (serve/chaos.hpp):
// profile parsing and validation, the no-op pass-through identity, the
// liveness contract (fragmentation and stalls never hang the reactor and
// never perturb served bytes), retry convergence against the harsh
// profile's resets and connect failures, and the PR-9 headline pin:
// 10,000 mixed-protocol connections under seeded chaos with offered load
// above the shed threshold — every request resolves correctly or with a
// structured retryable error, retries converge to 100% goodput on
// surviving connections, and the stats identities (including
// shed/expired) reconcile exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/retry.hpp"
#include "serve/chaos.hpp"
#include "serve_harness.hpp"

namespace esm {
namespace {

using serve::ChaosProfile;
using serve::EsmClient;
using serve::EventLoop;
using serve::LoopbackListener;
using serve::Protocol;
using serve::ServeConfig;

const std::string& artifact() {
  static const std::string path = build_artifact("chaos.esm");
  return path;
}

/// Wraps the harness listener in the chaos decorator, so every accepted
/// connection suffers the named profile's seeded schedule.
ListenerDecorator chaos(const char* profile) {
  return [profile](std::shared_ptr<serve::Listener> listener) {
    return serve::make_chaos_listener(
        std::move(listener), serve::chaos_profile_by_name(profile), 0x5eed);
  };
}

TEST(ChaosProfileTest, PresetsAndValidation) {
  EXPECT_FALSE(serve::chaos_profile_by_name("none").any());
  EXPECT_FALSE(serve::chaos_profile_by_name("").any());
  const ChaosProfile mild = serve::chaos_profile_by_name("mild");
  EXPECT_TRUE(mild.any());
  EXPECT_EQ(mild.reset_p, 0.0) << "mild must preserve every byte";
  EXPECT_EQ(mild.connect_fail_p, 0.0);
  const ChaosProfile harsh = serve::chaos_profile_by_name("HARSH");
  EXPECT_GT(harsh.reset_p, 0.0);
  EXPECT_GT(harsh.connect_fail_p, 0.0);
  EXPECT_THROW(serve::chaos_profile_by_name("cataclysmic"), ConfigError);
}

TEST(ChaosProfileTest, KeyValueParsing) {
  const ChaosProfile profile =
      serve::parse_chaos_profile("short_read_p=0.5,reset_p=0.01");
  EXPECT_EQ(profile.short_read_p, 0.5);
  EXPECT_EQ(profile.reset_p, 0.01);
  EXPECT_EQ(profile.short_write_p, 0.0);
  EXPECT_THROW(serve::parse_chaos_profile("short_read_p=1.5"), ConfigError);
  EXPECT_THROW(serve::parse_chaos_profile("bogus_key=0.5"), ConfigError);
  EXPECT_THROW(serve::parse_chaos_profile("short_read_p=abc"), ConfigError);
  EXPECT_THROW(serve::parse_chaos_profile("short_read_p"), ConfigError);
}

TEST(ChaosProfileTest, ZeroProfileIsPassThrough) {
  // "Chaos off" must be byte-identical to no decorator at all: the
  // listener comes back untouched, not wrapped.
  const std::shared_ptr<LoopbackListener> listener =
      serve::make_loopback_listener();
  const std::shared_ptr<serve::Listener> wrapped =
      serve::make_chaos_listener(listener, ChaosProfile{}, 42);
  EXPECT_EQ(wrapped.get(), listener.get());
}

TEST(ChaosTest, MildChaosServesBitIdentically) {
  // Heavy fragmentation and stalls, zero byte loss: every response must
  // match the offline prediction bit-for-bit, with zero drops.
  const std::vector<std::string> pool = arch_pool(64);
  const std::map<std::string, double> expected =
      offline_predictions(artifact(), pool);
  Harness harness(serve_config(artifact()), {}, chaos("mild"));
  for (int c = 0; c < 8; ++c) {
    EsmClient client =
        harness.client(c % 2 == 0 ? Protocol::esm1 : Protocol::esm2);
    std::vector<std::pair<std::uint64_t, std::string>> sent;
    for (int i = 0; i < 16; ++i) {
      const std::string& spec = pool[(c * 17 + i * 5) % pool.size()];
      sent.push_back({client.submit("predict", spec), spec});
    }
    for (const auto& [id, spec] : sent) {
      const EsmClient::Response response = client.await(id);
      ASSERT_TRUE(response.ok) << response.raw;
      EXPECT_EQ(response.payload, serve::format_latency(expected.at(spec)))
          << spec;
    }
  }
  EXPECT_EQ(harness.loop.stats().dropped, 0u);
  EsmClient auditor = harness.client(Protocol::esm2);
  EXPECT_EQ(auditor.stats().at("errors"), "0");
}

/// Scripted inner connection for decorator-level determinism tests:
/// canned read chunks, writes recorded verbatim, at most `write_cap`
/// bytes accepted per write.
struct ScriptedConn final : serve::Connection {
  std::vector<std::string> chunks;
  std::size_t next = 0;
  std::string written;
  std::size_t write_cap = std::string::npos;

  serve::IoResult read_some(std::string& out) override {
    if (next >= chunks.size()) return serve::IoResult::would_block;
    out += chunks[next++];
    return serve::IoResult::ok;
  }
  serve::IoResult write_some(const std::string_view* bufs, std::size_t count,
                             std::size_t* offset) override {
    // The decorator hands on the one buffer holding the offset.
    EXPECT_EQ(count, 1u);
    const std::string_view tail = bufs[0].substr(*offset, write_cap);
    written.append(tail);
    *offset += tail.size();
    return serve::IoResult::ok;
  }
  void close() override {}
};

TEST(ChaosTest, SameSeedReplaysTheSameSchedule) {
  // Drive two identical scripted connections through chaos decorators
  // seeded with the same substream: every read outcome, delivered
  // fragment, and write acceptance must replay exactly — the schedule is
  // a pure function of the rng state and the call sequence, with no
  // hidden wall-clock input.
  const ChaosProfile harsh = serve::chaos_profile_by_name("harsh");
  const auto run = [&harsh]() {
    auto inner = std::make_shared<ScriptedConn>();
    for (int i = 0; i < 8; ++i) {
      inner->chunks.push_back("chunk-" + std::to_string(i) + ";");
    }
    const std::shared_ptr<serve::Connection> conn =
        serve::make_chaos_connection(inner, harsh, Rng(0xc0ffee).split(3));
    std::string log;
    for (int i = 0; i < 64; ++i) {
      std::string out;
      const serve::IoResult r = conn->read_some(out);
      if (r == serve::IoResult::ok) {
        log += "ok:" + out;
      } else if (r == serve::IoResult::would_block) {
        log += "wb";
      } else {
        log += "err";
      }
      log += '|';
      if (r == serve::IoResult::error) break;
    }
    const std::string_view payload = "0123456789";
    std::size_t offset = 0;
    for (int i = 0; i < 64 && offset < payload.size(); ++i) {
      if (conn->write_some(&payload, 1, &offset) == serve::IoResult::error) {
        log += "werr|";
        break;
      }
      log += 'w';
      log += std::to_string(offset);
      log += '|';
    }
    log += "written:";
    log += inner->written;
    return log;
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_FALSE(first.empty());
}

/// Appends "<tag><outcome><detail>|" to `log`; ok's outcome is empty.
void note(std::string& log, char tag, serve::IoResult r,
          const std::string& detail) {
  log += tag;
  log += r == serve::IoResult::ok            ? ""
         : r == serve::IoResult::would_block ? "wb"
                                             : "err";
  log += detail;
  log += '|';
}

TEST(ChaosTest, HarshGatherScheduleGolden) {
  // Six seeded harsh schedules over a scripted inner connection that
  // accepts at most 7 bytes per write, driven by reads and by gather
  // writes of several buffers (empty ones included) until each sequence
  // is written or the connection dies. Every read outcome and fragment,
  // every write outcome and offset, and every byte the inner connection
  // took is logged; the log was recorded when gather writes still went
  // through a per-buffer forwarder, and must never change.
  const ChaosProfile harsh = serve::chaos_profile_by_name("harsh");
  const std::vector<std::vector<std::string_view>> writes = {
      {"alpha-", "", "bravo-charlie-", "d", "echo-foxtrot;"},
      {"x", "y", "z", "golf-hotel-india;"},
      {"", "juliet-kilo-lima-mike;", ""},
  };
  std::string log;
  for (std::uint64_t stream = 0; stream < 6; ++stream) {
    auto inner = std::make_shared<ScriptedConn>();
    inner->write_cap = 7;
    for (char i = '0'; i < '6'; ++i) {
      inner->chunks.push_back(std::string("r") + i + "-data;");
    }
    const std::shared_ptr<serve::Connection> conn =
        serve::make_chaos_connection(inner, harsh, Rng(0xfeed).split(stream));
    log += "#" + std::to_string(stream) + ":";
    for (const std::vector<std::string_view>& bufs : writes) {
      for (int i = 0; i < 3; ++i) {
        std::string out;
        const serve::IoResult r = conn->read_some(out);
        note(log, 'R', r, out);
      }
      std::size_t total = 0;
      for (const std::string_view buf : bufs) total += buf.size();
      std::size_t offset = 0;
      for (int i = 0; i < 64; ++i) {
        const serve::IoResult r =
            conn->write_some(bufs.data(), bufs.size(), &offset);
        note(log, 'W', r, std::to_string(offset));
        if (r == serve::IoResult::error || offset == total) break;
      }
      if (offset == total) {
        // A call with nothing left to write draws nothing.
        const serve::IoResult r =
            conn->write_some(bufs.data(), bufs.size(), &offset);
        note(log, 'E', r, "");
      }
    }
    log += "written=" + inner->written + "\n";
  }
  EXPECT_EQ(log,
      "#0:Rr0-data;|Rwb|Rr1-data;|W6|W7|Werr7|Rerr|Rerr|Rerr|Werr0|Rerr|Rerr|Rerr|Werr0|written=alpha-b\n"
      "#1:Rr|R0|R-data;|W6|W7|W14|W20|Werr20|Rerr|Rerr|Rerr|Werr0|Rerr|Rerr|Rerr|Werr0|written=alpha-bravo-charlie-\n"
      "#2:Rr0-data;|Rr1-data;|Rr2-data;|W6|W7|W14|W20|W21|W28|Wwb28|Wwb28|W34|E|Rr3-data;|Rwb|Rr|W1|W2|W3|Wwb3|W4|W11|W12|W13|W20|E|R4|R-|Rd|Werr0|written=alpha-bravo-charlie-decho-foxtrot;xyzgolf-hotel-india;\n"
      "#3:Rr|R0|R-data;|W1|W2|W6|W13|Werr13|Rerr|Rerr|Rerr|Werr0|Rerr|Rerr|Rerr|Werr0|written=alpha-bravo-c\n"
      "#4:Rr|R0-data;|Rr|W1|W2|W6|W13|W20|W21|W22|W23|Wwb23|W24|W25|W26|W27|Wwb27|W34|E|R1-data;|Rr|R2|W1|W2|W3|W4|W5|Wwb5|W12|W13|W20|E|R-data;|Rr3-data;|Rr4-data;|W7|W8|W15|W22|E|written=alpha-bravo-charlie-decho-foxtrot;xyzgolf-hotel-india;juliet-kilo-lima-mike;\n"
      "#5:Rr|R0|R-|Wwb0|Wwb0|W6|W13|W14|W15|W20|W21|Wwb21|W28|W34|E|Rd|Rata;|Rr1-data;|W1|W2|W3|W10|Werr10|Rerr|Rerr|Rerr|Werr0|written=alpha-bravo-charlie-decho-foxtrot;xyzgolf-ho\n");
}

TEST(ChaosTest, RetryRidesOutHarshChaos) {
  // Resets and connect-time failures kill individual attempts; a client
  // with reconnect + retry must still converge to the right answer for
  // every spec.
  const std::vector<std::string> pool = arch_pool(32);
  const std::map<std::string, double> expected =
      offline_predictions(artifact(), pool);
  Harness harness(serve_config(artifact()), {}, chaos("harsh"));

  EsmClient client = harness.client(Protocol::esm2);
  RetryPolicy policy = RetryPolicy::client_defaults();
  policy.max_attempts = 32;
  policy.backoff_base_s = 0.0005;
  policy.backoff_multiplier = 1.0;
  client.set_retry(policy, 0x5eed);
  client.set_request_timeout(2.0);
  client.set_reconnect([&harness]() {
    return harness.listener->connect();
  });

  for (const std::string& spec : pool) {
    const EsmClient::Response response = client.call("predict", spec);
    ASSERT_TRUE(response.ok) << response.raw;
    EXPECT_EQ(response.payload, serve::format_latency(expected.at(spec)))
        << spec;
  }
}

// The PR-9 headline pin: 10,000 concurrent mixed-protocol connections
// under the seeded mild chaos profile (fragmentation + stalls, every byte
// preserved) with offered load far above the admission cap. Every request
// must resolve — correct value or structured retryable `overloaded` — and
// per-connection retries must converge to 100% goodput. Afterward the
// stats identities, including shed/expired, reconcile exactly.
TEST(ChaosTest, TenThousandConnectionsUnderChaosAndOverloadConverge) {
  constexpr std::size_t kConns = 10000;
  constexpr std::size_t kThreads = 8;
  constexpr int kPerConn = 2;

  const std::vector<std::string> pool = arch_pool(311);
  const std::map<std::string, double> expected =
      offline_predictions(artifact(), pool);

  ServeConfig config = serve_config(artifact());
  config.max_queue = 64;  // offered load far above this admission cap
  Harness harness(config, {}, chaos("mild"));

  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> unexpected_errors{0};
  std::atomic<std::size_t> retries{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t begin = kConns * t / kThreads;
      const std::size_t end = kConns * (t + 1) / kThreads;
      std::vector<EsmClient> clients;
      std::vector<std::vector<std::pair<std::uint64_t, std::string>>> sent;
      clients.reserve(end - begin);
      sent.resize(end - begin);
      // Phase 1: every connection pipelines its requests before anything
      // is awaited — the full offered load hits the admission queue at
      // once, far above max_queue.
      for (std::size_t c = begin; c < end; ++c) {
        clients.emplace_back(harness.listener->connect(),
                             c % 2 == 0 ? Protocol::esm1 : Protocol::esm2);
        for (int i = 0; i < kPerConn; ++i) {
          const std::string& spec = pool[(c * 7 + i * 131) % pool.size()];
          sent[c - begin].push_back(
              {clients.back().submit("predict", spec), spec});
        }
      }
      // Phase 2: collect; re-submit anything the server shed until it
      // serves. Every terminal response must be the bit-exact value.
      for (std::size_t c = 0; c < clients.size(); ++c) {
        for (auto& [id, spec] : sent[c]) {
          for (;;) {
            const EsmClient::Response response = clients[c].await(id);
            if (response.ok) {
              if (response.payload !=
                  serve::format_latency(expected.at(spec))) {
                ++mismatches;
              }
              break;
            }
            if (response.verb_or_code != "overloaded") {
              ++unexpected_errors;
              break;
            }
            ++retries;
            id = clients[c].submit("predict", spec);
          }
        }
      }
      for (EsmClient& client : clients) client.close();
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(unexpected_errors.load(), 0u);

  const EventLoop::Stats loop_stats = harness.loop.stats();
  EXPECT_EQ(loop_stats.accepted, kConns);
  EXPECT_EQ(loop_stats.dropped, 0u) << "mild chaos preserves every byte";
  EXPECT_EQ(loop_stats.requests, kConns * kPerConn + retries.load());

  // Stats identities, shed included, reconcile exactly: every shed
  // request was retried to completion, so errors == shed == retries.
  EsmClient auditor = harness.client(Protocol::esm2);
  const std::map<std::string, std::string> stats = auditor.stats();
  const auto count = [&stats](const char* key) {
    return std::stoull(stats.at(key));
  };
  EXPECT_EQ(count("requests"), kConns * kPerConn + retries.load());
  EXPECT_EQ(count("errors"), retries.load());
  EXPECT_EQ(count("shed"), retries.load());
  EXPECT_EQ(count("expired"), 0u);
  EXPECT_EQ(count("requests"),
            count("hits") + count("misses") + count("errors"));
}

}  // namespace
}  // namespace esm
