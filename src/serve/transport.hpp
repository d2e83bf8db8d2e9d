// Byte-stream transport behind the event loop: non-blocking connections
// and listeners with one uniform readiness model, implemented twice —
//
//   * TCP (make_tcp_listener / adopt_fd_connection): real sockets with
//     O_NONBLOCK fds. poll_fd() exposes the fd so the event loop registers
//     it with epoll and readiness arrives from the kernel.
//
//   * loopback (make_loopback_listener): fd-less in-process connections
//     over plain byte buffers. poll_fd() is -1; readiness arrives through
//     a notifier callback the event loop installs (it marks the connection
//     ready and wakes the reactor through its self-pipe). Because no fd is
//     consumed per connection, tests drive tens of thousands of concurrent
//     connections deterministically under any ulimit, with the exact same
//     event-loop code paths the TCP transport exercises.
//
// All I/O is non-blocking from the event loop's point of view: read_some
// and write_some never wait, they report would_block and the loop retries
// when the transport signals readiness again.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace esm::serve {

/// Outcome of one non-blocking I/O attempt.
enum class IoResult {
  ok,           ///< made progress (read some bytes / wrote some bytes)
  would_block,  ///< no progress now; retry on the next readiness signal
  closed,       ///< orderly end-of-stream from the peer
  error,        ///< the connection is unusable; drop it
};

/// Invoked (from any thread) when an fd-less endpoint becomes readable or
/// writable again; must be cheap and non-blocking (it wakes the reactor).
using ReadyNotifier = std::function<void()>;

/// One accepted server-side connection. Not thread-safe: the event loop is
/// the only caller of read_some/write_some; close() may race only with the
/// peer, never with the loop.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Appends whatever bytes are available to `out` without blocking.
  /// `ok` guarantees at least one byte was appended.
  virtual IoResult read_some(std::string& out) = 0;

  /// Writes bytes of `data` starting at `*offset`, advancing `*offset` by
  /// what was accepted. `ok` guarantees progress; would_block means the
  /// peer must drain first.
  virtual IoResult write_some(std::string_view data, std::size_t* offset) = 0;

  /// Scatter-gather write: the `count` buffers are one logical byte
  /// sequence and `*offset` indexes into that concatenation, advancing by
  /// what was accepted (possibly spanning several buffers). The base
  /// implementation forwards to write_some on the buffer holding `*offset`
  /// — one buffer per call, so decorators that only override write_some
  /// still see every byte. Fd-backed connections override this with a
  /// gather syscall, flushing many small responses in one call.
  virtual IoResult write_some_vec(const std::string_view* bufs,
                                  std::size_t count, std::size_t* offset);

  /// Ends the connection in both directions. Idempotent.
  virtual void close() = 0;

  /// The pollable fd, or -1 for fd-less connections (loopback).
  virtual int poll_fd() const { return -1; }

  /// Installs the readiness callback for fd-less connections; a no-op for
  /// fd-backed ones (the kernel signals readiness through poll_fd()).
  virtual void set_ready_notifier(ReadyNotifier) {}
};

/// A connection acceptor. accept_one() never blocks.
class Listener {
 public:
  virtual ~Listener() = default;

  /// The next pending connection, or nullptr when none is waiting.
  virtual std::shared_ptr<Connection> accept_one() = 0;

  /// Stops accepting: pending and future connect attempts fail. Idempotent.
  virtual void close() = 0;

  /// The pollable listening fd, or -1 for fd-less listeners.
  virtual int poll_fd() const { return -1; }

  /// Readiness callback for fd-less listeners (a connection is pending).
  virtual void set_ready_notifier(ReadyNotifier) {}
};

/// Binds and listens on 127.0.0.1:`port` (0 = kernel picks); the chosen
/// port is stored in `*bound_port`. The listening fd and every accepted fd
/// are O_NONBLOCK | FD_CLOEXEC. Throws esm::ConfigError on bind failure.
std::unique_ptr<Listener> make_tcp_listener(int port, int* bound_port);

/// Wraps an already-connected socket fd as a Connection (sets O_NONBLOCK;
/// takes ownership of the fd).
std::shared_ptr<Connection> adopt_fd_connection(int fd);

/// Blocking byte channel from a client to a server: a TCP socket
/// (connect_tcp, serve/client.hpp) or the client end of one loopback
/// connection (LoopbackListener::connect). Blocking calls are for driver
/// threads in tests, benches and clients, never the event loop.
class ClientChannel {
 public:
  virtual ~ClientChannel() = default;

  /// Writes all of `bytes`; false once the server side closed.
  virtual bool send(std::string_view bytes) = 0;

  /// Blocks until response bytes are available or the server side closed,
  /// then appends what arrived to `out`. False on end-of-stream with
  /// nothing buffered.
  virtual bool receive_some(std::string& out) = 0;

  /// Like receive_some, but gives up after `timeout_ms` milliseconds:
  /// returns false with `*timed_out` (when non-null) set when nothing
  /// arrived in time. On data or end-of-stream behaves exactly like
  /// receive_some (with `*timed_out` false). The base implementation
  /// ignores the timeout and blocks; TCP (poll(2)) and loopback (its
  /// condition variable) override it with a bounded wait, which is what
  /// gives the client its per-request timeouts.
  virtual bool receive_some_for(std::string& out, int timeout_ms,
                                bool* timed_out);

  /// Closes the client end; the server reads end-of-stream. Idempotent.
  virtual void close() = 0;
};

/// Fd-less in-process listener. connect() may be called from any thread.
class LoopbackListener : public Listener {
 public:
  /// Opens one connection: the server half becomes accept_one()-able and
  /// the client half is returned. nullptr once the listener closed.
  /// `response_buffer_cap` bounds the server-to-client buffer: a full
  /// buffer makes the server's write_some report would_block until the
  /// client drains, which is how tests exercise backpressure (0 = none).
  virtual std::shared_ptr<ClientChannel> connect(
      std::size_t response_buffer_cap = 0) = 0;
};

std::shared_ptr<LoopbackListener> make_loopback_listener();

}  // namespace esm::serve
