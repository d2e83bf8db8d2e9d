// esm_serve — event-loop TCP front end for the online prediction server.
//
// Server mode:
//   esm_serve model.esm [--port N] [--port-file PATH] [--cache N]
//             [--max-batch N] [--summary-s SEC] [--idle-timeout-s SEC]
//             [--max-queue N] [--deadline-ms N]
//             [--max-searches N] [--chaos PROFILE] [--chaos-seed N]
//   esm_serve --manifest fleet/manifest.esmf [...]
//   Serves a single `.esm` artifact or a whole fleet manifest (`esm_cli
//   pipeline` publishes these); the two are told apart by file content, so
//   the positional form works for both. Binds 127.0.0.1:N (N = 0 lets the
//   kernel pick; the chosen port is printed as "listening on
//   127.0.0.1:<port>" and written to --port-file when given). All
//   connections are multiplexed on one epoll reactor thread, which also
//   prices cache misses: one round of at most --max-batch architectures
//   per wakeup (see src/serve/event_loop.hpp). Searches run on their own
//   worker. Both wire protocols share the port: the newline-delimited esm1
//   protocol of src/serve/protocol.hpp and the length-prefixed binary esm2
//   protocol of src/serve/frame.hpp, told apart by the first byte
//   (0xE5 = esm2).
//   SIGINT and SIGTERM (and the protocol's `shutdown` verb) drain: every
//   request already on the wire is answered before exit; a final stats
//   summary goes to stderr.
//
//   Overload safety: --max-queue caps the miss architectures admitted but
//   not yet answered (a request that would cross it is shed whole,
//   immediately, with the retryable `overloaded` error, unless nothing
//   else is admitted), --deadline-ms stamps a default deadline onto
//   requests that carry none (expired requests answer
//   `deadline_exceeded` without spending a predict slot), and
//   --chaos wraps the listener in the deterministic fault-injection
//   decorator of src/serve/chaos.hpp (a preset name like "mild"/"harsh"
//   or key=value rates, seeded by --chaos-seed) for soak testing.
//
// Client mode:
//   esm_serve --connect PORT [--host H] [--proto esm1|esm2]
//             [--retries N] [--timeout-s SEC]
//   Reads request lines from stdin, prints each response to stdout (esm1
//   responses verbatim; esm2 responses as "esm2 ok <verb> <payload>" /
//   "esm2 err <code> <detail>"). Exit 0 when every response was ok, 2
//   when any response was an error, 1 on connection failure — which is
//   what scripts/ci.sh's loopback smoke test checks.
//
// Example:
//   esm_cli train --surrogate gbdt -o model.esm
//   esm_serve model.esm --port 0 &
//   printf 'predict 3,5,2,7\nstats\nshutdown\n' | esm_serve --connect <port>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/error.hpp"
#include "common/retry.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace {

std::atomic<bool> g_stop{false};
std::atomic<esm::serve::EventLoop*> g_loop{nullptr};

// Only async-signal-safe work here: set the flag and poke the loop's
// wake pipe so the stop is noticed immediately (no polling interval —
// the old accept loop's 200 ms poll race is gone).
void handle_signal(int) {
  g_stop.store(true);
  esm::serve::EventLoop* loop = g_loop.load();
  if (loop != nullptr) loop->notify_external();
}

/// A size flag's value: a negative one would wrap to a huge size_t.
std::size_t size_flag(const esm::ArgParser& args, const std::string& name) {
  const long long value = args.get_int(name);
  ESM_REQUIRE(value >= 0, "--" << name << " must be >= 0, got " << value);
  return static_cast<std::size_t>(value);
}

int run_server(const esm::ArgParser& args) {
  esm::serve::ServeConfig config;
  config.artifact_path = args.get_string("model").empty()
                             ? args.get_string("manifest")
                             : args.get_string("model");
  config.cache_capacity = size_flag(args, "cache");
  config.max_batch = size_flag(args, "max-batch");
  config.summary_period_s = args.get_double("summary-s");
  config.max_queue = size_flag(args, "max-queue");
  config.default_deadline_ms =
      static_cast<std::uint32_t>(args.get_int("deadline-ms"));
  config.max_search_queue = size_flag(args, "max-searches");
  esm::serve::PredictionServer server(config);
  const std::shared_ptr<const esm::serve::ModelFleet> fleet = server.fleet();
  if (fleet->from_manifest()) {
    std::cout << "serving a fleet of " << fleet->models().size()
              << " model(s) from " << fleet->source_path() << " [crc32 "
              << fleet->manifest_crc32() << "]\n";
    for (const esm::serve::FleetModel& m : fleet->models()) {
      std::cout << "  " << m.name
                << (m.name == fleet->default_model().name ? " (default)"
                                                          : "")
                << ": " << m.model->kind() << " (" << m.model->spec().name
                << ", encoder " << m.model->encoder_key() << ") from "
                << m.artifact_path << " [crc32 " << m.crc32_hex << "]\n";
    }
  } else {
    const esm::serve::MetricsSnapshot boot = server.metrics();
    std::cout << "serving " << boot.kind << " (" << boot.space
              << ", encoder " << boot.encoder << ") from " << boot.artifact
              << " [crc32 " << boot.artifact_crc32 << "]\n";
  }

  esm::serve::EventLoopConfig loop_config;
  loop_config.idle_timeout_s = args.get_double("idle-timeout-s");
  loop_config.external_stop_check = [] { return g_stop.load(); };
  esm::serve::EventLoop loop(server, loop_config);

  int port = 0;
  std::shared_ptr<esm::serve::Listener> listener(
      esm::serve::make_tcp_listener(static_cast<int>(args.get_int("port")),
                                    &port));
  const esm::serve::ChaosProfile chaos =
      esm::serve::parse_chaos_profile(args.get_string("chaos"));
  if (chaos.any()) {
    const std::uint64_t chaos_seed =
        static_cast<std::uint64_t>(args.get_int("chaos-seed"));
    listener = esm::serve::make_chaos_listener(listener, chaos, chaos_seed);
    std::cout << "chaos transport enabled: profile \""
              << args.get_string("chaos") << "\" seed " << chaos_seed
              << "\n";
  }
  loop.add_listener(std::move(listener));
  std::cout << "listening on 127.0.0.1:" << port << std::endl;
  const std::string port_file = args.get_string("port-file");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << port << "\n";
  }

  g_loop.store(&loop);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // Runs the reactor until a signal or the shutdown verb, then drains:
  // run() only returns once every accepted request has been answered.
  loop.run();
  g_loop.store(nullptr);

  server.request_stop();
  server.wait();
  const esm::serve::EventLoop::Stats stats = loop.stats();
  std::fprintf(stderr, "%s\n",
               esm::serve::ServerMetrics::summary_line(server.metrics())
                   .c_str());
  std::fprintf(stderr,
               "event_loop accepted=%llu closed=%llu dropped=%llu "
               "requests=%llu\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.closed),
               static_cast<unsigned long long>(stats.dropped),
               static_cast<unsigned long long>(stats.requests));
  return 0;
}

int run_client(const esm::ArgParser& args) {
  const std::string proto = args.get_string("proto");
  if (proto != "esm1" && proto != "esm2") {
    std::cerr << "error: --proto must be esm1 or esm2\n";
    return 1;
  }
  const std::string host = args.get_string("host");
  const int port = static_cast<int>(args.get_int("connect"));
  std::shared_ptr<esm::serve::ClientChannel> channel;
  try {
    channel = esm::serve::connect_tcp(host, port);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  esm::serve::EsmClient client(std::move(channel),
                               proto == "esm2"
                                   ? esm::serve::Protocol::esm2
                                   : esm::serve::Protocol::esm1);
  const int retries = static_cast<int>(args.get_int("retries"));
  if (retries > 0) {
    esm::RetryPolicy policy = esm::RetryPolicy::client_defaults();
    policy.max_attempts = retries + 1;
    client.set_retry(policy);
    client.set_reconnect(
        [host, port] { return esm::serve::connect_tcp(host, port); });
  }
  const double timeout_s = args.get_double("timeout-s");
  if (timeout_s > 0.0) {
    client.set_request_timeout(timeout_s);
    if (retries <= 0) {
      client.set_reconnect(
          [host, port] { return esm::serve::connect_tcp(host, port); });
    }
  }
  bool any_error = false;
  std::string request;
  while (std::getline(std::cin, request)) {
    if (request.empty()) continue;
    esm::serve::EsmClient::Response response;
    try {
      response = client.call_line(request);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    std::cout << response.raw << "\n";
    if (!response.ok) any_error = true;
  }
  return any_error ? 2 : 0;
}

/// Turns a bare positional token into the --model value (mirrors esm_cli).
std::vector<const char*> normalize_args(int argc, char** argv,
                                        std::vector<std::string>& storage) {
  storage.clear();
  bool prev_expects_value = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.empty() && arg[0] != '-' && !prev_expects_value) {
      storage.push_back("--model=" + arg);
    } else {
      storage.push_back(arg);
      prev_expects_value =
          arg.size() > 2 && arg[0] == '-' && arg.find('=') == std::string::npos;
    }
  }
  std::vector<const char*> out;
  out.push_back(argv[0]);
  for (const std::string& s : storage) out.push_back(s.c_str());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  esm::ArgParser args(
      "esm_serve MODEL.esm|MANIFEST.esmf: serve latency predictions over "
      "loopback TCP from one event-loop thread, speaking both the "
      "newline-delimited esm1 protocol and the binary pipelined esm2 "
      "protocol on the same port (verbs: predict, predict_batch, search, "
      "info, models, stats, reload, shutdown; requests may route by model "
      "name). With --connect PORT, run as a line client instead.");
  args.add_string("model", "", "surrogate artifact or fleet manifest to serve");
  args.add_string("manifest", "",
                  "fleet manifest to serve (same as passing it as MODEL; "
                  "the file content decides)");
  args.add_int("port", 0, "TCP port to bind on 127.0.0.1 (0 = kernel picks)");
  args.add_string("port-file", "",
                  "write the bound port number to this file once listening");
  args.add_int("cache", 4096, "prediction cache capacity (0 disables)");
  args.add_int("max-batch", 64,
               "most miss architectures the reactor prices per wakeup, in "
               "one predict_all call per model; a larger request is priced "
               "across wakeups (>= 1)");
  args.add_double("summary-s", 10.0,
                  "seconds between stderr stats summaries (0 disables)");
  args.add_double("idle-timeout-s", 0.0,
                  "drop connections idle this long (0 = never)");
  args.add_int("max-queue", 0,
               "cap on admitted but unanswered miss architectures; a request "
               "that would cross it is shed whole with the retryable "
               "`overloaded` error (0 = unbounded)");
  args.add_int("deadline-ms", 0,
               "default per-request deadline in ms for requests that carry "
               "none; expired requests answer `deadline_exceeded` "
               "(0 = no default)");
  args.add_int("max-searches", 0,
               "cap on admitted-but-unanswered `search` requests; one "
               "beyond it is shed with `overloaded` (0 = unbounded)");
  args.add_string("chaos", "",
                  "inject deterministic transport chaos: a preset "
                  "(none|mild|harsh) or key=value rates, e.g. "
                  "\"short_read_p=0.5,reset_p=0.01\"");
  args.add_int("chaos-seed", 0, "seed for the chaos schedule");
  args.add_int("connect", 0, "client mode: connect to this port");
  args.add_string("host", "127.0.0.1", "client mode: host to connect to");
  args.add_string("proto", "esm1", "client mode: wire protocol (esm1|esm2)");
  args.add_int("retries", 0,
               "client mode: retry idempotent verbs up to N times on "
               "retryable errors (overloaded) with backoff");
  args.add_double("timeout-s", 0.0,
                  "client mode: per-request timeout; on expiry the client "
                  "reconnects and retries or fails (0 = none)");

  std::vector<std::string> storage;
  const std::vector<const char*> rewritten =
      normalize_args(argc, argv, storage);
  if (!args.parse(static_cast<int>(rewritten.size()), rewritten.data())) {
    return 0;
  }
  try {
    if (args.get_int("connect") > 0) return run_client(args);
    ESM_REQUIRE(!args.get_string("model").empty() ||
                    !args.get_string("manifest").empty(),
                "server mode needs a MODEL.esm or --manifest path (or use "
                "--connect)");
    return run_server(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
