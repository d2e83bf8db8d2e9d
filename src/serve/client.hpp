// EsmClient — one typed client for both serving protocols.
//
// Speaks esm1 (newline text) or esm2 (binary frames, serve/frame.hpp) over
// any blocking byte channel: a TCP socket (connect_tcp) or the in-process
// loopback transport (LoopbackListener::connect), so tests, benches, and the
// esm_serve CLI all drive the server through this one implementation.
//
// Two API levels:
//   - Sync verbs (predict, predict_batch, info, models, stats, search,
//     reload, shutdown): send one request, block for its response, throw
//     esm::ConfigError on structured errors; call_line() passes a raw
//     request line through. Protocol-independent.
//   - Pipelining (submit/await): queue many requests without waiting, then
//     collect responses by id. Over esm2 the server completes requests out
//     of order and the id match is native; over esm1 responses arrive in
//     request order and the client re-associates them FIFO — the API is
//     identical, only the concurrency the wire permits differs, which is
//     exactly what bench/serve_throughput.cpp measures. await is await_for
//     without a deadline: one loop, reading through the channel's one
//     receive_some (blocking, or bounded by the time left).
//
// Overload behavior (PR 9): set_retry installs an esm::RetryPolicy-driven
// retry loop around the sync verbs — only idempotent verbs are retried,
// and only on retryable structured errors (`overloaded`,
// error_code_retryable) or, when a reconnect factory is installed, on
// transport failure and per-request timeout. Backoff sleeps real
// wall-clock seconds drawn from seeded Rng substreams, so retry schedules
// are deterministic.
//
// Not thread-safe: one EsmClient per thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/retry.hpp"
#include "serve/transport.hpp"

namespace esm::serve {

/// Produces a fresh channel to (the same) server; used by EsmClient
/// reconnects.
using ChannelFactory = std::function<std::shared_ptr<ClientChannel>()>;

/// Connects a blocking TCP socket to `host`:`port`. Throws
/// esm::ConfigError when the connection cannot be established.
std::shared_ptr<ClientChannel> connect_tcp(const std::string& host, int port);

enum class Protocol { esm1, esm2 };

class EsmClient {
 public:
  explicit EsmClient(std::shared_ptr<ClientChannel> channel,
                     Protocol protocol = Protocol::esm1);

  Protocol protocol() const { return protocol_; }

  /// One response, protocol-independent.
  struct Response {
    bool ok = false;
    std::string verb_or_code;  ///< verb when ok, error-code token when not
    std::string payload;       ///< ok payload / error detail
    std::string raw;  ///< display form: the esm1 line, or "esm2 ok ..."
  };

  // -- pipelined API -------------------------------------------------------

  /// Queues one request without waiting; returns its id. Throws
  /// esm::ConfigError when the verb is unknown to the protocol or the
  /// connection is gone.
  std::uint64_t submit(const std::string& verb, const std::string& payload);

  /// Blocks until the response for `id` arrived (responses for other
  /// pipelined requests are buffered as they pass by): await_for with no
  /// deadline. Throws esm::ConfigError when the connection ends first.
  Response await(std::uint64_t id);

  /// Like await but gives up after `timeout_s` wall-clock seconds (a
  /// negative value never gives up), returning false with `out` untouched
  /// (the request stays outstanding — its response, if it ever arrives, is
  /// buffered for a later await).
  bool await_for(std::uint64_t id, double timeout_s, Response& out);

  // -- overload handling ---------------------------------------------------

  /// Installs a retry loop around the sync verbs. Only idempotent verbs
  /// (predict, predict_batch, info, models, stats, search) are retried,
  /// and only:
  ///   * on structured errors whose code is retryable (`overloaded`), and
  ///   * on transport failure / per-request timeout, when a reconnect
  ///     factory is installed (set_reconnect) — reconnecting discards any
  ///     other pipelined state, so retries engage only with no other
  ///     requests outstanding.
  /// Backoff follows retry_backoff_seconds with jitter substreams split
  /// from `seed`, slept in real time.
  void set_retry(const esm::RetryPolicy& policy, std::uint64_t seed = 0);

  /// Per-request timeout for the sync verbs; 0 (default) disables. On
  /// expiry the connection state is unrecoverable (a late response would
  /// desync the pipeline), so a reconnect factory is required: the client
  /// reconnects and either retries (under set_retry) or throws.
  void set_request_timeout(double seconds);

  /// Installs a factory producing replacement channels, enabling recovery
  /// from transport failures and timeouts.
  void set_reconnect(ChannelFactory factory);

  // -- sync verbs ----------------------------------------------------------

  /// submit + await of one request.
  Response call(const std::string& verb, const std::string& payload);

  double predict(const std::string& arch_spec);
  double predict(const std::string& model, const std::string& arch_spec);
  std::vector<double> predict_batch(const std::vector<std::string>& specs);
  std::vector<double> predict_batch(const std::string& model,
                                    const std::vector<std::string>& specs);
  std::map<std::string, std::string> info();
  std::map<std::string, std::string> info(const std::string& model);
  std::map<std::string, std::string> stats();
  std::vector<std::string> models();
  /// Runs a whole NAS query on the server (`search` verb, k=v request
  /// grammar of nas/search/wire.hpp) and returns the front payload.
  std::string search(const std::string& request);
  void reload(const std::string& artifact_path);
  void shutdown();

  /// Sends a raw "verb payload" line (the CLI's stdin passthrough) and
  /// blocks for its response — works over both protocols (the line is
  /// split and re-framed for esm2).
  Response call_line(const std::string& line);

  void close() { channel_->close(); }

 private:
  Response expect_ok(const std::string& verb, const std::string& payload);

  /// Decodes whatever whole responses sit in in_ into completed_.
  void decode_buffered();

  /// Reads until at least one more response is decoded into completed_.
  /// timeout_ms < 0 blocks indefinitely; otherwise returns false when the
  /// channel timed out first. Throws on end-of-stream.
  bool pump(int timeout_ms);

  /// Replaces the channel via reconnect_ and discards pipeline state.
  void reconnect();

  /// One attempt of a sync call with the per-request timeout applied.
  /// Timeouts surface as ConfigError after tearing down the channel.
  Response call_once(const std::string& verb, const std::string& payload);

  std::shared_ptr<ClientChannel> channel_;
  Protocol protocol_;
  std::uint64_t next_id_ = 1;
  std::string in_;  ///< undecoded response bytes
  std::vector<std::uint64_t> fifo_;  ///< esm1: ids awaiting, request order
  std::map<std::uint64_t, Response> completed_;
  std::size_t outstanding_ = 0;  ///< submitted, not yet awaited

  esm::RetryPolicy retry_;  ///< max_attempts 1 until set_retry
  Rng retry_rng_{0};
  std::uint64_t retry_draws_ = 0;  ///< substream counter for jitter
  double request_timeout_s_ = 0.0;
  ChannelFactory reconnect_;
};

}  // namespace esm::serve
