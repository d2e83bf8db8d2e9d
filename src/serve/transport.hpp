// Byte-stream transport behind the event loop: non-blocking connections
// and listeners with one uniform readiness model, implemented twice —
//
//   * TCP (make_tcp_listener): real sockets with O_NONBLOCK fds.
//     poll_fd() exposes the fd so the event loop registers it with epoll
//     and readiness arrives from the kernel.
//
//   * loopback (make_loopback_listener): fd-less in-process connections
//     over plain byte buffers. poll_fd() is -1; readiness arrives through
//     a notifier callback the event loop installs (it marks the connection
//     ready and wakes the reactor through its self-pipe). Because no fd is
//     consumed per connection, tests drive tens of thousands of concurrent
//     connections deterministically under any ulimit, with the exact same
//     event-loop code paths the TCP transport exercises.
//
// One contract per direction: a Connection has one read and one gather
// write, a ClientChannel one send and one receive (blocking, or bounded by
// a timeout). All server-side I/O is non-blocking: read_some and
// write_some never wait, they report would_block and the loop retries
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

/// Most buffers one Connection::write_some call gathers: the event loop's
/// flush window and the iovec array of fd-backed connections.
inline constexpr std::size_t kMaxWriteBufs = 64;

/// One accepted server-side connection. Not thread-safe: the event loop is
/// the only caller of read_some/write_some; close() may race only with the
/// peer, never with the loop.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Appends whatever bytes are available to `out` without blocking.
  /// `ok` guarantees at least one byte was appended.
  virtual IoResult read_some(std::string& out) = 0;

  /// Gather write: the `count` buffers (at most kMaxWriteBufs) are one
  /// logical byte sequence and `*offset` indexes into their concatenation,
  /// advancing by what was accepted, possibly across several buffers. `ok`
  /// guarantees progress unless `*offset` was already at the end;
  /// would_block means the peer must drain first.
  virtual IoResult write_some(const std::string_view* bufs, std::size_t count,
                              std::size_t* offset) = 0;

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

/// Blocking byte channel from a client to a server: a TCP socket
/// (connect_tcp, serve/client.hpp) or the client end of one loopback
/// connection (LoopbackListener::connect). Blocking calls are for driver
/// threads in tests, benches and clients, never the event loop.
class ClientChannel {
 public:
  virtual ~ClientChannel() = default;

  /// Writes all of `bytes`; false once the server side closed.
  virtual bool send(std::string_view bytes) = 0;

  /// Waits until response bytes are available, the server side closed,
  /// or `timeout_ms` milliseconds passed (-1 waits without limit), then
  /// appends what arrived to `out`. Returns false on end-of-stream with
  /// nothing buffered and on timeout; `*timed_out` (when non-null) tells
  /// the two apart.
  virtual bool receive_some(std::string& out, int timeout_ms = -1,
                            bool* timed_out = nullptr) = 0;

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
