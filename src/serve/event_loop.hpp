// Epoll reactor front end for PredictionServer: thousands of concurrent
// connections on one I/O thread, speaking esm1 and esm2 on the same port.
//
// Design:
//   - One thread (the caller of run()) owns every connection. Fd-backed
//     connections (TCP) register their fd with epoll(7), while fd-less
//     connections (the loopback transport) signal readiness through a
//     notifier that marks the connection ready and wakes the reactor via
//     its self-pipe. Both kinds flow through identical parse/flush code.
//   - The first byte of each connection selects its protocol: 0xE5 is the
//     esm2 frame magic (outside ASCII), anything else is an esm1 text
//     line. A connection never switches protocols.
//   - Requests are handed to PredictionServer::handle_request, the
//     transport-agnostic core, so both protocols answer bit-identically
//     and share one metrics sink. Cache hits and control verbs complete
//     inline. Each wakeup reads every ready connection, then calls
//     PredictionServer::flush() once, which prices the wakeup's misses as
//     one round (at most max_batch archs; a larger predict_batch is priced
//     across wakeups, the poll not sleeping in between), then writes the
//     pass's completions. A miss never leaves the loop thread, and a
//     completion produced on it writes no wake byte. Only searches
//     complete on another thread (the search worker); their completions
//     are queued back through the self-pipe, so nothing touches a
//     connection from another thread.
//   - esm1 responses are released strictly in request order per connection
//     (a per-connection sequence holds completed-out-of-order responses
//     until their turn); esm2 responses are written the moment they
//     complete, matched by request id — that out-of-order completion is
//     what makes pipelining pay.
//   - Backpressure: a connection whose buffered output (wire buffers plus
//     held-back esm1 responses) passes the high watermark stops being read
//     (its socket fills and the client blocks); passing the hard cap drops
//     it. The esm1 hold-back map is additionally capped by entry count
//     (max_held_responses), bounding what one slow head-of-line response
//     can pin in memory. Idle and write-stalled connections
//     are reaped by timeouts. A malformed esm2 frame is answered with one
//     final bad_frame error frame, then the connection closes (there is no
//     way to resynchronize on frame boundaries past a corrupt header).
//   - Drain (the shutdown verb, request_stop(), or the external stop
//     check): listeners close first, each connection gets one final read
//     pass, every complete request already on the wire is answered and
//     flushed, partial trailing bytes are discarded, and run() returns
//     only after every in-flight completion came back — no request that
//     was read is ever dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace esm::serve {

struct EventLoopConfig {
  /// Largest declared esm2 payload accepted by the frame parser. Oversized
  /// declarations are a framing error (the connection closes); payloads
  /// within this bound but over ServeConfig::max_line_bytes get the same
  /// structured `oversized` error esm1 answers.
  std::size_t max_frame_payload = 1 << 20;
  /// Output bytes above which a connection stops being read.
  std::size_t out_high_watermark = 1 << 20;
  /// Output bytes above which a connection is dropped outright.
  std::size_t out_hard_cap = 8u << 20;
  /// Cap on esm1 responses completed out of order and waiting for their
  /// ordered turn on one connection; exceeding it drops the connection.
  /// Their bytes also count toward the watermark/hard-cap comparisons.
  std::size_t max_held_responses = 1024;
  /// Seconds a connection may sit idle (nothing in flight, nothing
  /// buffered) before it is dropped. 0 disables.
  double idle_timeout_s = 0.0;
  /// Seconds a connection may leave output unflushed (slow client) before
  /// it is dropped. 0 disables.
  double write_stall_timeout_s = 30.0;
  /// Polled once per tick; returning true begins the drain. Wired to the
  /// signal flag by esm_serve so SIGINT/SIGTERM stop the loop without the
  /// old 200 ms accept-poll race (the signal handler also writes the wake
  /// pipe through notify_external(), so the reaction is immediate).
  std::function<bool()> external_stop_check;
  /// Reactor tick in milliseconds: the poll timeout, which bounds how
  /// stale the timeout sweep and the external stop check can be.
  int tick_ms = 100;
};

class EventLoop {
 public:
  /// The server must outlive the loop and stay un-stopped until run()
  /// returns: draining answers every parsed request through it.
  EventLoop(PredictionServer& server, EventLoopConfig config = {});
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers a listener. Call before run(); the loop polls fd-backed
  /// listeners and installs readiness notifiers on fd-less ones.
  void add_listener(std::shared_ptr<Listener> listener);

  /// Runs the reactor on the calling thread until a drain completes.
  void run();

  /// Begins the drain from any thread (idempotent, async-signal unsafe —
  /// signal handlers should set a flag for external_stop_check and call
  /// notify_external() instead).
  void request_stop();

  /// Wakes the reactor so it re-evaluates external_stop_check now.
  /// Async-signal-safe (one write(2) on the self-pipe).
  void notify_external();

  struct Stats {
    std::uint64_t accepted = 0;  ///< connections ever accepted
    std::uint64_t closed = 0;    ///< orderly closes (EOF, drain)
    std::uint64_t dropped = 0;   ///< forced closes: backpressure, framing
                                 ///< errors, I/O errors, timeouts
    std::uint64_t requests = 0;  ///< requests submitted to the server
    std::uint64_t active = 0;    ///< connections currently open
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> active_{0};
};

}  // namespace esm::serve
