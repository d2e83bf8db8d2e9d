// Serving throughput benchmark: drives the event-loop front end of the
// online prediction server over fd-less loopback connections and reports
// sustained requests/s plus client-observed latency percentiles under
// 1/8/256/4096 concurrent connections for each wire protocol (newline esm1
// and binary esm2, both pipelined eight requests deep per connection so
// the offered load matches and only the wire format differs), plus an
// overload scenario (256 connections offering ~4x the admitted capacity
// against a bounded admission queue) reporting shed rate and
// retry-converged goodput. Writes BENCH_serve.json next to the binary.
//
//   ./serve_throughput [--pool N] [--out PATH]
//
// Every scenario self-checks: any dropped connection, request error, or
// stats identity violation aborts the benchmark with a nonzero exit. Warm
// vs cold cache and routed multi-model serving through the shipped
// esm_serve binary are measured by perfbench's predict_hot and
// predict_cold workloads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "encoding/encoder.hpp"
#include "ml/gbdt.hpp"
#include "nets/builder.hpp"
#include "serve/client.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "surrogate/gbdt_surrogate.hpp"
#include "surrogate/registry.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Generated bench artifacts land under bench/fixtures/ (gitignored), so
/// running the benchmark from the repo root never litters it.
std::string fixture_path(const std::string& name) {
  static const std::string dir = [] {
    esm::make_dirs("bench/fixtures");
    return std::string("bench/fixtures");
  }();
  return dir + "/" + name;
}

/// Trains a small GBDT on ResNet and saves it where the server can load it.
std::string build_artifact(const std::string& name) {
  const esm::SupernetSpec spec = esm::resnet_spec();
  esm::SimulatedDevice device(esm::rtx4090_spec(), 7);
  esm::Rng rng(0x5eed);
  esm::BalancedSampler sampler(spec, 4);
  const std::vector<esm::ArchConfig> archs = sampler.sample_n(64, rng);
  std::vector<double> labels;
  labels.reserve(archs.size());
  for (const esm::ArchConfig& arch : archs) {
    labels.push_back(device.true_latency_ms(esm::build_graph(spec, arch)));
  }
  esm::GbdtConfig gbdt;
  gbdt.n_estimators = 30;
  esm::GbdtSurrogate surrogate(esm::make_encoder("fcc", spec), gbdt);
  surrogate.fit(esm::SurrogateDataset{archs, labels});
  esm::save_surrogate(surrogate, name);
  return name;
}

/// Deterministic request pool: depth combinations with rotating per-unit
/// kernel/expansion features (same shape tests/serve_test.cpp uses).
std::vector<std::string> arch_pool(std::size_t limit) {
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

struct ScenarioResult {
  std::string name;
  std::string proto;  ///< "esm1" or "esm2"
  int clients = 1;
  bool warm = false;
  std::size_t requests = 0;
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  bool overload = false;   ///< overload scenario: report shed fields
  std::size_t shed = 0;    ///< admission attempts answered `overloaded`
  double shed_rate = 0.0;  ///< shed / (ok + shed) admission attempts
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(p / 100.0 *
                               static_cast<double>(sorted_us.size())));
  return sorted_us[index];
}

/// Event-loop front end under `conns` concurrent loopback connections,
/// all multiplexed on one reactor thread. At most eight driver threads
/// round-robin their share of the connections, keeping eight requests in
/// flight per connection for BOTH protocols (esm1 pipelines on the wire
/// too — its responses just must return in order), so the offered load is
/// identical and the wire format + completion order are the only
/// variables. Warm cache; self-checks drops, errors, and the stats
/// identities before reporting.
ScenarioResult run_event_loop_scenario(const std::string& artifact,
                                       const std::vector<std::string>& pool,
                                       int conns,
                                       std::size_t requests_per_conn,
                                       esm::serve::Protocol proto) {
  namespace serve = esm::serve;
  const bool esm2 = proto == serve::Protocol::esm2;
  const std::size_t window = 8;

  serve::ServeConfig config;
  config.artifact_path = artifact;
  config.cache_capacity = 4096;
  serve::PredictionServer server(config);
  serve::EventLoop loop(server);
  const std::shared_ptr<serve::LoopbackListener> listener =
      serve::make_loopback_listener();
  loop.add_listener(listener);
  std::thread loop_thread([&loop] { loop.run(); });

  {  // Prime every pool entry so the measured phase is all cache hits.
    serve::EsmClient primer(listener->connect(), proto);
    for (const std::string& arch : pool) primer.predict(arch);
    primer.close();
  }

  const int driver_threads = std::min(8, conns);
  std::vector<std::vector<double>> latencies_us(
      static_cast<std::size_t>(driver_threads));
  std::atomic<std::size_t> request_errors{0};
  const Clock::time_point begin = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(driver_threads));
  for (int t = 0; t < driver_threads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t local =
          static_cast<std::size_t>(conns * (t + 1) / driver_threads -
                                   conns * t / driver_threads);
      std::vector<serve::EsmClient> clients;
      clients.reserve(local);
      for (std::size_t c = 0; c < local; ++c) {
        clients.emplace_back(listener->connect(), proto);
      }
      std::vector<std::deque<std::pair<std::uint64_t, Clock::time_point>>>
          pending(local);
      std::vector<std::size_t> remaining(local, requests_per_conn);
      std::vector<double>& mine = latencies_us[static_cast<std::size_t>(t)];
      mine.reserve(local * requests_per_conn);
      std::size_t left = local * requests_per_conn;
      std::size_t outstanding = 0;
      std::size_t counter = 0;
      while (left > 0 || outstanding > 0) {
        // Top every connection's window up, then collect one response per
        // connection; the round-robin keeps all of them in flight at once.
        for (std::size_t c = 0; c < local; ++c) {
          while (pending[c].size() < window && remaining[c] > 0) {
            const std::string& arch =
                pool[(counter * 131 + c * 7919 +
                      static_cast<std::size_t>(t)) %
                     pool.size()];
            ++counter;
            pending[c].emplace_back(clients[c].submit("predict", arch),
                                    Clock::now());
            --remaining[c];
            --left;
            ++outstanding;
          }
        }
        for (std::size_t c = 0; c < local; ++c) {
          if (pending[c].empty()) continue;
          const auto [id, start] = pending[c].front();
          pending[c].pop_front();
          if (!clients[c].await(id).ok) ++request_errors;
          mine.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - start)
                  .count());
          --outstanding;
        }
      }
      for (serve::EsmClient& client : clients) client.close();
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - begin).count();

  // Reconcile before tearing anything down, then drain the loop.
  std::map<std::string, std::string> stats;
  {
    serve::EsmClient auditor(listener->connect(), proto);
    stats = auditor.stats();
    auditor.close();
  }
  loop.request_stop();
  loop_thread.join();
  server.request_stop();
  server.wait();

  const serve::EventLoop::Stats loop_stats = loop.stats();
  const auto stat = [&stats](const char* key) {
    return std::stoull(stats.at(key));
  };
  ESM_REQUIRE(loop_stats.dropped == 0,
              "event-loop bench dropped " << loop_stats.dropped
                                          << " connection(s)");
  ESM_REQUIRE(request_errors.load() == 0,
              "event-loop bench saw " << request_errors.load()
                                      << " request error(s)");
  ESM_REQUIRE(stat("errors") == 0 &&
                  stat("requests") ==
                      stat("hits") + stat("misses") + stat("errors") &&
                  stat("archs") == stat("arch_hits") + stat("arch_misses"),
              "event-loop bench stats do not reconcile");

  std::vector<double> all_us;
  for (const std::vector<double>& per_thread : latencies_us) {
    all_us.insert(all_us.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all_us.begin(), all_us.end());

  ScenarioResult result;
  result.name = std::string(esm2 ? "esm2" : "esm1") + "_" +
                std::to_string(conns) +
                (conns == 1 ? "_conn" : "_conns");
  result.proto = esm2 ? "esm2" : "esm1";
  result.clients = conns;
  result.warm = true;
  result.requests = all_us.size();
  result.req_per_s =
      elapsed_s > 0.0 ? static_cast<double>(all_us.size()) / elapsed_s : 0.0;
  result.p50_us = percentile(all_us, 50);
  result.p95_us = percentile(all_us, 95);
  result.p99_us = percentile(all_us, 99);
  result.p999_us = percentile(all_us, 99.9);
  return result;
}

/// Overload scenario: `conns` connections keep eight-deep pipelines in
/// flight against a server whose admitted concurrency (max_queue) is a
/// quarter of the offered concurrency, so roughly 4x capacity is offered
/// and the admission gate sheds the excess with the retryable
/// `overloaded` error. Cold cache: every admitted request really spends a
/// pricing slot. The driver resubmits every shed request until it
/// succeeds — the client-side retry story — so goodput converges to 100%
/// of the unique workload; reported are the shed rate over all admission
/// attempts and the goodput (ok responses per second). Self-checks that
/// the server counted exactly the sheds the clients saw and that the
/// stats identities reconcile.
ScenarioResult run_overload_scenario(const std::string& artifact,
                                     const std::vector<std::string>& pool,
                                     int conns,
                                     std::size_t requests_per_conn) {
  namespace serve = esm::serve;
  const std::size_t window = 8;
  const std::size_t offered =
      static_cast<std::size_t>(conns) * window;  // concurrent entries

  serve::ServeConfig config;
  config.artifact_path = artifact;
  config.cache_capacity = 0;
  config.max_queue = offered / 4;  // offered load = 4x admitted capacity
  serve::PredictionServer server(config);
  serve::EventLoop loop(server);
  const std::shared_ptr<serve::LoopbackListener> listener =
      serve::make_loopback_listener();
  loop.add_listener(listener);
  std::thread loop_thread([&loop] { loop.run(); });

  const int driver_threads = std::min(8, conns);
  std::vector<std::vector<double>> latencies_us(
      static_cast<std::size_t>(driver_threads));
  std::atomic<std::size_t> total_ok{0};
  std::atomic<std::size_t> total_shed{0};
  std::atomic<std::size_t> request_errors{0};
  const Clock::time_point begin = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(driver_threads));
  for (int t = 0; t < driver_threads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t local =
          static_cast<std::size_t>(conns * (t + 1) / driver_threads -
                                   conns * t / driver_threads);
      std::vector<serve::EsmClient> clients;
      clients.reserve(local);
      for (std::size_t c = 0; c < local; ++c) {
        clients.emplace_back(listener->connect(), serve::Protocol::esm2);
      }
      struct Pending {
        std::uint64_t id;
        std::size_t arch;  ///< pool index, for shed resubmission
        Clock::time_point start;
      };
      std::vector<std::deque<Pending>> pending(local);
      std::vector<std::size_t> remaining(local, requests_per_conn);
      std::vector<double>& mine = latencies_us[static_cast<std::size_t>(t)];
      mine.reserve(local * requests_per_conn);
      std::size_t ok = 0;
      std::size_t shed = 0;
      std::size_t left = local * requests_per_conn;
      std::size_t outstanding = 0;
      std::size_t counter = 0;
      while (left > 0 || outstanding > 0) {
        for (std::size_t c = 0; c < local; ++c) {
          while (pending[c].size() < window && remaining[c] > 0) {
            const std::size_t arch = (counter * 131 + c * 7919 +
                                      static_cast<std::size_t>(t)) %
                                     pool.size();
            ++counter;
            pending[c].push_back(
                {clients[c].submit("predict", pool[arch]), arch,
                 Clock::now()});
            --remaining[c];
            --left;
            ++outstanding;
          }
        }
        for (std::size_t c = 0; c < local; ++c) {
          if (pending[c].empty()) continue;
          const Pending head = pending[c].front();
          pending[c].pop_front();
          const serve::EsmClient::Response response =
              clients[c].await(head.id);
          if (response.ok) {
            ++ok;
            mine.push_back(std::chrono::duration<double, std::micro>(
                               Clock::now() - head.start)
                               .count());
            --outstanding;
          } else if (response.verb_or_code == "overloaded") {
            // Shed at admission: retry the same architecture, keeping its
            // original start time so the latency sample charges the
            // retries (the client-visible cost of overload).
            ++shed;
            pending[c].push_back({clients[c].submit("predict", pool[head.arch]),
                                  head.arch, head.start});
          } else {
            ++request_errors;
            --outstanding;
          }
        }
      }
      total_ok.fetch_add(ok);
      total_shed.fetch_add(shed);
      for (serve::EsmClient& client : clients) client.close();
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - begin).count();

  std::map<std::string, std::string> stats;
  {
    serve::EsmClient auditor(listener->connect(), serve::Protocol::esm2);
    stats = auditor.stats();
    auditor.close();
  }
  loop.request_stop();
  loop_thread.join();
  server.request_stop();
  server.wait();

  const serve::EventLoop::Stats loop_stats = loop.stats();
  const auto stat = [&stats](const char* key) {
    return std::stoull(stats.at(key));
  };
  ESM_REQUIRE(loop_stats.dropped == 0,
              "overload bench dropped " << loop_stats.dropped
                                        << " connection(s)");
  ESM_REQUIRE(request_errors.load() == 0,
              "overload bench saw " << request_errors.load()
                                    << " non-retryable request error(s)");
  ESM_REQUIRE(stat("shed") == total_shed.load() &&
                  stat("errors") == total_shed.load() &&
                  stat("expired") == 0 &&
                  stat("requests") ==
                      stat("hits") + stat("misses") + stat("errors"),
              "overload bench stats do not reconcile");

  std::vector<double> all_us;
  for (const std::vector<double>& per_thread : latencies_us) {
    all_us.insert(all_us.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all_us.begin(), all_us.end());

  ScenarioResult result;
  result.name = "overload_" + std::to_string(conns) + "_conns";
  result.proto = "esm2";
  result.clients = conns;
  result.warm = false;
  result.overload = true;
  result.requests = total_ok.load();
  result.shed = total_shed.load();
  const double attempts =
      static_cast<double>(total_ok.load() + total_shed.load());
  result.shed_rate =
      attempts > 0.0 ? static_cast<double>(total_shed.load()) / attempts : 0.0;
  result.req_per_s = elapsed_s > 0.0
                         ? static_cast<double>(total_ok.load()) / elapsed_s
                         : 0.0;
  result.p50_us = percentile(all_us, 50);
  result.p95_us = percentile(all_us, 95);
  result.p99_us = percentile(all_us, 99);
  result.p999_us = percentile(all_us, 99.9);
  return result;
}

void write_json(const std::string& path,
                const std::vector<ScenarioResult>& results) {
  std::ofstream out(path);
  ESM_REQUIRE(out.good(), "cannot open " << path << " for writing");
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    out << "  {\"name\": \"" << r.name << "\", \"clients\": " << r.clients
        << ", \"warm_cache\": " << (r.warm ? "true" : "false")
        << ", \"requests\": " << r.requests
        << ", \"req_per_s\": " << r.req_per_s << ", \"p50_us\": " << r.p50_us
        << ", \"p95_us\": " << r.p95_us << ", \"p99_us\": " << r.p99_us
        << ", \"p999_us\": " << r.p999_us;
    out << ", \"proto\": \"" << r.proto << "\"";
    if (r.overload) {
      out << ", \"shed\": " << r.shed << ", \"shed_rate\": " << r.shed_rate
          << ", \"goodput_req_per_s\": " << r.req_per_s;
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  esm::ArgParser args(
      "serve_throughput: requests/s and latency percentiles of the online "
      "prediction server's event-loop front end, esm1 vs esm2");
  args.add_int("pool", 311, "distinct architectures in the request pool");
  args.add_string("out", "BENCH_serve.json", "output JSON path");
  if (!args.parse(argc, argv)) return 0;

  const std::string artifact = build_artifact(fixture_path("serve_bench.esm"));
  const std::vector<std::string> pool =
      arch_pool(static_cast<std::size_t>(args.get_int("pool")));

  std::vector<ScenarioResult> results;
  // Event-loop front end: both protocols at each concurrency level, the
  // same ~16k-request workload split across the connections.
  for (const int conns : {1, 8, 256, 4096}) {
    const std::size_t per_conn =
        std::max<std::size_t>(2, 16384 / static_cast<std::size_t>(conns));
    for (const esm::serve::Protocol proto :
         {esm::serve::Protocol::esm1, esm::serve::Protocol::esm2}) {
      results.push_back(
          run_event_loop_scenario(artifact, pool, conns, per_conn, proto));
      const ScenarioResult& r = results.back();
      std::cout << r.name << ": " << r.requests << " requests, "
                << static_cast<long long>(r.req_per_s) << " req/s, p50 "
                << r.p50_us << " us, p99 " << r.p99_us << " us, p999 "
                << r.p999_us << " us\n";
    }
  }

  // Overload: 256 connections offering ~4x the admitted capacity; every
  // shed request is retried until it lands, so goodput stays at 100% of
  // the unique workload and the shed rate prices the overload.
  {
    const std::size_t per_conn = std::max<std::size_t>(2, 16384 / 256);
    results.push_back(run_overload_scenario(artifact, pool, 256, per_conn));
    const ScenarioResult& r = results.back();
    std::cout << r.name << ": " << r.requests << " ok, " << r.shed
              << " shed (rate " << r.shed_rate << "), goodput "
              << static_cast<long long>(r.req_per_s) << " req/s, p50 "
              << r.p50_us << " us, p99 " << r.p99_us << " us\n";
  }

  write_json(args.get_string("out"), results);
  std::cout << "wrote " << args.get_string("out") << "\n";
  return 0;
}
