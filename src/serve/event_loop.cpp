#include "serve/event_loop.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/frame.hpp"

namespace esm::serve {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

/// Readiness via epoll(7). Only real fds register here — the TCP sockets,
/// the listeners, and the self-pipe. Fd-less loopback connections never
/// touch the poller.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
  };

  Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epfd_ < 0) {
      throw ConfigError(std::string("epoll_create1(): ") +
                        std::strerror(errno));
    }
  }
  ~Poller() { ::close(epfd_); }

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, bool want_read, bool want_write) {
    epoll_event ev = make_event(fd, want_read, want_write);
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  }

  void update(int fd, bool want_read, bool want_write) {
    epoll_event ev = make_event(fd, want_read, want_write);
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
  }

  void remove(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  void wait(std::vector<Event>& out, int timeout_ms) {
    epoll_event events[256];
    const int n = ::epoll_wait(epfd_, events, 256, timeout_ms);
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = events[i].data.fd;
      e.readable = (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0;
      e.writable = (events[i].events & EPOLLOUT) != 0;
      e.hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      out.push_back(e);
    }
  }

 private:
  static epoll_event make_event(int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    if (want_read) ev.events |= EPOLLIN;
    if (want_write) ev.events |= EPOLLOUT;
    ev.data.fd = fd;
    return ev;
  }

  int epfd_;
};

enum class Proto { unknown, esm1, esm2 };

/// Why a connection went away — decides the accepted/closed/dropped stats.
enum class CloseKind { graceful, dropped };

struct Conn {
  std::uint64_t id = 0;
  std::shared_ptr<Connection> io;
  int fd = -1;  ///< io->poll_fd() at registration; -1 for loopback
  Proto proto = Proto::unknown;

  std::string in;               ///< unparsed request bytes
  std::deque<std::string> out;  ///< responses waiting for the wire
  std::size_t out_offset = 0;   ///< written bytes of out.front()
  std::size_t out_bytes = 0;    ///< total buffered output

  /// esm1 responses leave in request order: completions out of that order
  /// wait in `held` until every earlier sequence number has been written.
  std::uint64_t next_seq = 0;
  std::uint64_t next_emit = 0;
  std::map<std::uint64_t, std::string> held;
  std::size_t held_bytes = 0;  ///< total bytes parked in `held`

  std::size_t inflight = 0;  ///< requests submitted, completion pending
  bool paused = false;       ///< backpressure: reading suspended
  bool closing = false;      ///< drain: answer what's in flight, then close
  bool read_shut = false;    ///< no further reads (EOF, framing error)
  bool want_write = false;   ///< poller is watching writability
  Clock::time_point last_activity;
  Clock::time_point stall_since;  ///< valid while out is non-empty
};

/// One finished request on its way back to the reactor.
struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;  ///< esm1 ordering slot (unused for esm2)
  std::string bytes;      ///< rendered response, ready for the wire
  bool shutdown = false;
  bool lost = false;  ///< rendering failed: the connection is dropped
};

}  // namespace

struct EventLoop::Impl {
  EventLoop& owner;
  PredictionServer& server;
  EventLoopConfig config;

  Poller poller;
  int wake_read_fd = -1;
  int wake_write_fd = -1;
  /// Set while a wake is already due: a byte sits in the pipe, or the
  /// reactor is awake between a poll's return and its next check of the
  /// pending lists, so completions it produces itself write nothing.
  std::atomic<bool> wake_pending{false};

  std::vector<std::shared_ptr<Listener>> listeners;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::unordered_map<int, std::uint64_t> fd_to_conn;
  std::uint64_t next_conn_id = 1;

  std::mutex pending_mutex;
  std::vector<Completion> pending_completions;
  std::vector<std::uint64_t> pending_ready;  ///< fd-less conns with news
  bool pending_accept = false;               ///< an fd-less listener has one

  std::atomic<bool> stop_requested{false};
  bool draining = false;
  bool drain_swept = false;
  std::size_t outstanding = 0;  ///< completions not yet delivered
  /// Lines may wait for flush(): a request was handed to the server since
  /// the last flush(), or that flush() left lines unpriced. The next poll
  /// must not sleep.
  bool flush_due = false;
  /// pending_completions' capacity, reserved on the reactor ahead of
  /// `outstanding` so a completion callback queues without allocating.
  std::size_t completion_slots = 0;

  Impl(EventLoop& owner_, PredictionServer& server_, EventLoopConfig config_)
      : owner(owner_), server(server_), config(std::move(config_)) {}

  ~Impl() {
    if (wake_read_fd >= 0) ::close(wake_read_fd);
    if (wake_write_fd >= 0) ::close(wake_write_fd);
  }

  // ---- wake pipe ---------------------------------------------------------

  void init_wake_pipe() {
    int fds[2];
    ESM_REQUIRE(::pipe(fds) == 0, "pipe(): wake pipe");
    for (const int fd : fds) {
      const int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      const int fd_flags = ::fcntl(fd, F_GETFD, 0);
      ::fcntl(fd, F_SETFD, fd_flags | FD_CLOEXEC);
    }
    wake_read_fd = fds[0];
    wake_write_fd = fds[1];
    poller.add(wake_read_fd, true, false);
  }

  /// Coalesced wake: one byte in the pipe no matter how many callers.
  void wake() {
    if (wake_pending.exchange(true, std::memory_order_acq_rel)) return;
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd, &byte, 1);
  }

  void drain_wake_pipe() {
    char buf[256];
    while (::read(wake_read_fd, buf, sizeof(buf)) > 0) {
    }
  }

  // ---- connection lifecycle ----------------------------------------------

  void register_conn(std::shared_ptr<Connection> io) {
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id++;
    conn->io = std::move(io);
    conn->fd = conn->io->poll_fd();
    conn->last_activity = Clock::now();
    owner.accepted_.fetch_add(1, std::memory_order_relaxed);
    owner.active_.fetch_add(1, std::memory_order_relaxed);
    Conn* raw = conn.get();
    if (raw->fd >= 0) {
      poller.add(raw->fd, true, false);
      fd_to_conn[raw->fd] = raw->id;
    } else {
      // Fd-less: readiness arrives through the notifier; pick up anything
      // the client already sent before we were installed.
      const std::uint64_t id = raw->id;
      raw->io->set_ready_notifier([this, id] {
        {
          std::lock_guard<std::mutex> lock(pending_mutex);
          pending_ready.push_back(id);
        }
        wake();
      });
    }
    const std::uint64_t id = raw->id;
    conns.emplace(id, std::move(conn));
    read_conn(*raw);
    // The initial read pass may already have dropped the connection.
    Conn* still = find_conn(id);
    if (still != nullptr) flush_conn(*still);
  }

  void remove_conn(Conn& conn, CloseKind kind) {
    if (conn.fd >= 0) {
      poller.remove(conn.fd);
      fd_to_conn.erase(conn.fd);
    }
    conn.io->close();
    (kind == CloseKind::graceful ? owner.closed_ : owner.dropped_)
        .fetch_add(1, std::memory_order_relaxed);
    owner.active_.fetch_sub(1, std::memory_order_relaxed);
    conns.erase(conn.id);  // invalidates `conn`
  }

  Conn* find_conn(std::uint64_t id) {
    const auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second.get();
  }

  // ---- reading and parsing -----------------------------------------------

  void read_conn(Conn& conn) {
    if (conn.read_shut || conn.paused || conn.closing) return;
    const std::uint64_t id = conn.id;
    for (;;) {
      const IoResult r = conn.io->read_some(conn.in);
      if (r == IoResult::ok) {
        conn.last_activity = Clock::now();
        parse_input(conn, /*at_eof=*/false);
        // parse_input may have dropped the connection (line-limit abuse).
        if (find_conn(id) == nullptr) return;
        if (conn.read_shut || conn.paused || conn.closing) return;
        continue;
      }
      if (r == IoResult::would_block) return;
      if (r == IoResult::closed) {
        // Orderly EOF: answer everything complete (plus a final
        // unterminated esm1 line), flush, then close.
        parse_input(conn, /*at_eof=*/true);
        if (find_conn(id) == nullptr) return;
        conn.read_shut = true;
        conn.closing = true;
        return;
      }
      remove_conn(conn, CloseKind::dropped);
      return;
    }
  }

  void parse_input(Conn& conn, bool at_eof) {
    if (conn.proto == Proto::unknown && !conn.in.empty()) {
      conn.proto = static_cast<unsigned char>(conn.in[0]) == kFrameMagic0
                       ? Proto::esm2
                       : Proto::esm1;
    }
    if (conn.proto == Proto::esm2) {
      parse_esm2(conn);
      return;
    }
    std::size_t newline;
    while ((newline = conn.in.find('\n')) != std::string::npos) {
      std::string line = conn.in.substr(0, newline);
      conn.in.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      submit(conn, split_request(line), line.size(), /*verb_byte=*/0);
      if (conn.read_shut) return;
    }
    // A peer that streams past the line limit without a newline cannot be
    // resynchronized: drop.
    if (conn.in.size() > server_max_line() + 2) {
      remove_conn(conn, CloseKind::dropped);
      return;
    }
    if (at_eof && !conn.in.empty()) {
      std::string line;
      line.swap(conn.in);
      submit(conn, split_request(line), line.size(), /*verb_byte=*/0);
    }
  }

  void parse_esm2(Conn& conn) {
    for (;;) {
      Frame frame;
      std::string error;
      const FrameParse r =
          parse_frame(conn.in, frame, error, config.max_frame_payload);
      if (r == FrameParse::need_more) return;
      if (r == FrameParse::bad) {
        // Unrecoverable: one final error frame, then the connection dies.
        queue_bytes(conn,
                    encode_error_response(
                        0, static_cast<std::uint8_t>(ErrorCode::bad_frame),
                        error));
        conn.in.clear();
        conn.read_shut = true;
        conn.closing = true;
        flush_conn(conn);
        return;
      }
      const std::string_view verb_name = frame_verb_name(frame.verb);
      ParsedRequest request;
      request.verb = verb_name.empty()
                         ? "frame_verb_" + std::to_string(frame.verb)
                         : std::string(verb_name);
      request.payload = std::move(frame.payload);
      request.deadline_ms = frame.deadline_ms;
      submit(conn, request,
             (frame.deadline_ms != 0 ? kFrameHeaderBytesV2
                                     : kFrameHeaderBytes) +
                 request.payload.size(),
             frame.verb, frame.request_id);
      if (conn.read_shut) return;
    }
  }

  std::size_t server_max_line() const {
    return server.config().max_line_bytes;
  }

  /// Hands one parsed request to the server core. The completion callback
  /// fires inline (cache hit, control verb), from the reactor's flush()
  /// (a miss), or from the search worker; either way it renders the
  /// response for this connection's protocol and queues it back to the
  /// reactor. It never throws: its queue slot is reserved here, and a
  /// response it cannot render drops the connection instead, so
  /// `outstanding` always falls back to zero.
  void submit(Conn& conn, const ParsedRequest& request, std::size_t wire_bytes,
              std::uint8_t verb_byte, std::uint64_t request_id = 0) {
    if (outstanding >= completion_slots) {
      std::lock_guard<std::mutex> lock(pending_mutex);
      pending_completions.reserve(2 * (outstanding + 1));
      completion_slots = pending_completions.capacity();
    }
    const std::uint64_t conn_id = conn.id;
    const std::uint64_t seq = conn.next_seq++;
    const Proto proto = conn.proto;
    ++conn.inflight;
    ++outstanding;
    flush_due = true;
    owner.requests_.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point start = Clock::now();
    server.handle_request(
        request, wire_bytes,
        [this, conn_id, seq, proto, verb_byte, request_id,
         start](Reply&& reply) {
          server.metrics_sink().record_latency_us(elapsed_us(start));
          Completion completion;
          completion.conn_id = conn_id;
          completion.seq = seq;
          completion.shutdown = reply.shutdown;
          try {
            if (proto == Proto::esm2) {
              completion.bytes =
                  reply.ok ? encode_ok_response(request_id, verb_byte,
                                                reply.payload)
                           : encode_error_response(
                                 request_id,
                                 static_cast<std::uint8_t>(reply.code),
                                 reply.payload);
            } else {
              completion.bytes = format_reply_esm1(reply);
              completion.bytes += '\n';
            }
          } catch (...) {
            completion.lost = true;
          }
          {
            std::lock_guard<std::mutex> lock(pending_mutex);
            pending_completions.push_back(std::move(completion));
          }
          wake();
        });
  }

  // ---- writing -----------------------------------------------------------

  void queue_bytes(Conn& conn, std::string bytes) {
    conn.out_bytes += bytes.size();
    if (conn.out.empty()) conn.stall_since = Clock::now();
    conn.out.push_back(std::move(bytes));
  }

  /// Applies one completion: ordered release for esm1, immediate for esm2.
  void apply_completion(Completion& completion) {
    --outstanding;
    Conn* conn = find_conn(completion.conn_id);
    if (conn == nullptr) return;  // connection died while in flight
    if (conn->inflight > 0) --conn->inflight;
    conn->last_activity = Clock::now();
    if (completion.lost) {
      // A response missing from the stream (esm1 order would wait on it
      // forever) ends the connection.
      if (completion.shutdown) begin_drain();
      remove_conn(*conn, CloseKind::dropped);
      return;
    }
    if (conn->proto == Proto::esm1) {
      if (completion.seq == conn->next_emit) {
        queue_bytes(*conn, std::move(completion.bytes));
        ++conn->next_emit;
        auto held = conn->held.find(conn->next_emit);
        while (held != conn->held.end()) {
          conn->held_bytes -= held->second.size();
          queue_bytes(*conn, std::move(held->second));
          conn->held.erase(held);
          held = conn->held.find(++conn->next_emit);
        }
      } else if (conn->held.size() >= config.max_held_responses) {
        // The hold-back map is full and this response cannot be released
        // until the head of line completes: the connection is pipelining
        // beyond what ordered delivery can buffer. Drop it.
        if (completion.shutdown) begin_drain();
        remove_conn(*conn, CloseKind::dropped);
        return;
      } else {
        conn->held_bytes += completion.bytes.size();
        conn->held.emplace(completion.seq, std::move(completion.bytes));
      }
    } else {
      queue_bytes(*conn, std::move(completion.bytes));
    }
    if (completion.shutdown) begin_drain();
  }

  void flush_conn(Conn& conn) {
    while (!conn.out.empty()) {
      // Scatter-gather flush: hand the transport a window of buffered
      // responses as one logical sequence (one writev-style syscall for
      // fd-backed connections instead of one send per response).
      // out_offset indexes into the concatenation and stays within
      // out.front() because fully written fronts pop immediately.
      std::string_view bufs[kMaxWriteBufs];
      std::size_t count = 0;
      for (const std::string& buffered : conn.out) {
        if (count == kMaxWriteBufs) break;
        bufs[count++] = buffered;
      }
      const IoResult r = conn.io->write_some(bufs, count, &conn.out_offset);
      if (r == IoResult::ok) {
        while (!conn.out.empty() &&
               conn.out_offset >= conn.out.front().size()) {
          conn.out_offset -= conn.out.front().size();
          conn.out_bytes -= conn.out.front().size();
          conn.out.pop_front();
          conn.stall_since = Clock::now();
        }
        continue;
      }
      if (r == IoResult::would_block) {
        if (conn.fd >= 0 && !conn.want_write) {
          conn.want_write = true;
          poller.update(conn.fd, !conn.paused && !conn.read_shut, true);
        }
        break;
      }
      remove_conn(conn, CloseKind::dropped);
      return;
    }
    if (conn.out.empty() && conn.want_write) {
      conn.want_write = false;
      poller.update(conn.fd, !conn.paused && !conn.read_shut, false);
    }

    // Backpressure transitions around the watermarks. Held-back esm1
    // responses are buffered output too — they just haven't reached the
    // wire queue yet — so they count against both thresholds.
    const std::size_t buffered_bytes = conn.out_bytes + conn.held_bytes;
    if (!conn.paused && buffered_bytes > config.out_high_watermark) {
      conn.paused = true;
      if (conn.fd >= 0) poller.update(conn.fd, false, conn.want_write);
    } else if (conn.paused &&
               buffered_bytes <= config.out_high_watermark / 2) {
      conn.paused = false;
      if (conn.fd >= 0) {
        poller.update(conn.fd, !conn.read_shut, conn.want_write);
      }
      const std::uint64_t id = conn.id;
      read_conn(conn);
      if (find_conn(id) == nullptr) return;  // the read dropped it
    }

    if (buffered_bytes > config.out_hard_cap) {
      remove_conn(conn, CloseKind::dropped);
      return;
    }
    if (conn.closing && conn.inflight == 0 && conn.out.empty() &&
        conn.held.empty()) {
      remove_conn(conn, CloseKind::graceful);
    }
  }

  // ---- accept ------------------------------------------------------------

  void accept_from(Listener& listener) {
    if (draining) return;
    while (std::shared_ptr<Connection> io = listener.accept_one()) {
      register_conn(std::move(io));
    }
  }

  // ---- drain -------------------------------------------------------------

  void begin_drain() { draining = true; }

  /// One-time drain sweep: stop accepting, give every connection a final
  /// read pass (complete requests already on the wire get answers), then
  /// discard partial trailing bytes and mark everything closing.
  /// Connections still queued at a listener were made before the stop, so
  /// they count as on the wire: they are accepted first, and closing the
  /// listener then refuses only connections made after it.
  void sweep_drain() {
    drain_swept = true;
    for (const std::shared_ptr<Listener>& listener : listeners) {
      while (std::shared_ptr<Connection> io = listener->accept_one()) {
        register_conn(std::move(io));
      }
      if (listener->poll_fd() >= 0) poller.remove(listener->poll_fd());
      listener->close();
    }
    std::vector<std::uint64_t> ids;
    ids.reserve(conns.size());
    for (const auto& [id, conn] : conns) ids.push_back(id);
    for (const std::uint64_t id : ids) {
      Conn* conn = find_conn(id);
      if (conn == nullptr) continue;
      if (!conn->read_shut && !conn->closing) {
        conn->paused = false;
        read_conn(*conn);
        conn = find_conn(id);
        if (conn == nullptr) continue;
      }
      conn->in.clear();
      conn->read_shut = true;
      conn->closing = true;
      flush_conn(*conn);
    }
  }

  // ---- timeouts ----------------------------------------------------------

  void sweep_timeouts() {
    if (config.idle_timeout_s <= 0.0 && config.write_stall_timeout_s <= 0.0) {
      return;
    }
    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> doomed;
    for (const auto& [id, conn] : conns) {
      const double idle_s =
          std::chrono::duration<double>(now - conn->last_activity).count();
      if (config.idle_timeout_s > 0.0 && conn->inflight == 0 &&
          conn->out.empty() && !conn->closing &&
          idle_s > config.idle_timeout_s) {
        doomed.push_back(id);
        continue;
      }
      if (config.write_stall_timeout_s > 0.0 && !conn->out.empty()) {
        const double stall_s =
            std::chrono::duration<double>(now - conn->stall_since).count();
        if (stall_s > config.write_stall_timeout_s) doomed.push_back(id);
      }
    }
    for (const std::uint64_t id : doomed) {
      Conn* conn = find_conn(id);
      if (conn != nullptr) remove_conn(*conn, CloseKind::dropped);
    }
  }

  // ---- main loop ---------------------------------------------------------

  void run() {
    std::vector<Poller::Event> events;
    std::vector<Completion> completions;
    std::vector<std::uint64_t> ready;
    for (;;) {
      // From here until the poll returns, a completion from another thread
      // (the search worker, a notifier) writes the wake pipe. Work already
      // queued, or lines due for flush(), skip the poll sleep entirely.
      wake_pending.store(false, std::memory_order_release);
      bool have_pending;
      {
        std::lock_guard<std::mutex> lock(pending_mutex);
        have_pending = !pending_completions.empty() ||
                       !pending_ready.empty() || pending_accept;
      }
      events.clear();
      poller.wait(events, have_pending || flush_due ? 0 : config.tick_ms);
      wake_pending.store(true, std::memory_order_release);

      // Fd events: listeners accept, connections read/flush.
      for (const Poller::Event& event : events) {
        if (event.fd == wake_read_fd) {
          drain_wake_pipe();
          continue;
        }
        bool was_listener = false;
        for (const std::shared_ptr<Listener>& listener : listeners) {
          if (listener->poll_fd() == event.fd) {
            accept_from(*listener);
            was_listener = true;
            break;
          }
        }
        if (was_listener) continue;
        const auto it = fd_to_conn.find(event.fd);
        if (it == fd_to_conn.end()) continue;
        Conn* conn = find_conn(it->second);
        if (conn == nullptr) continue;
        const std::uint64_t id = conn->id;
        if (event.readable || event.hangup) {
          read_conn(*conn);
          conn = find_conn(id);
          if (conn == nullptr) continue;
        }
        if (event.writable || event.readable || event.hangup) {
          flush_conn(*conn);
        }
      }

      // Fd-less work signalled through the wake pipe.
      ready.clear();
      bool check_accept = false;
      {
        std::lock_guard<std::mutex> lock(pending_mutex);
        ready.swap(pending_ready);
        check_accept = pending_accept;
        pending_accept = false;
      }
      if (check_accept) {
        for (const std::shared_ptr<Listener>& listener : listeners) {
          if (listener->poll_fd() < 0) accept_from(*listener);
        }
      }
      for (const std::uint64_t id : ready) {
        Conn* conn = find_conn(id);
        if (conn == nullptr) continue;
        read_conn(*conn);
        conn = find_conn(id);
        if (conn != nullptr) flush_conn(*conn);
      }

      // Every ready connection has been read: the misses of this wakeup
      // form one round, priced here, and their completions (like every
      // inline one) are written below, in this same pass.
      flush_due = server.flush();

      completions.clear();
      {
        std::lock_guard<std::mutex> lock(pending_mutex);
        // Moved out, not swapped: pending_completions keeps the capacity
        // submit() reserved for the completions still outstanding.
        completions.assign(std::make_move_iterator(pending_completions.begin()),
                           std::make_move_iterator(pending_completions.end()));
        pending_completions.clear();
      }
      for (Completion& completion : completions) {
        apply_completion(completion);
        Conn* conn = find_conn(completion.conn_id);
        if (conn != nullptr) flush_conn(*conn);
      }

      sweep_timeouts();

      if (stop_requested.load(std::memory_order_acquire) ||
          (config.external_stop_check && config.external_stop_check())) {
        begin_drain();
      }
      if (draining && !drain_swept) sweep_drain();
      if (draining && conns.empty() && outstanding == 0) return;
    }
  }
};

EventLoop::EventLoop(PredictionServer& server, EventLoopConfig config)
    : impl_(std::make_unique<Impl>(*this, server, std::move(config))) {
  impl_->init_wake_pipe();
}

EventLoop::~EventLoop() = default;

void EventLoop::add_listener(std::shared_ptr<Listener> listener) {
  if (listener->poll_fd() >= 0) {
    impl_->poller.add(listener->poll_fd(), true, false);
  } else {
    Impl* impl = impl_.get();
    listener->set_ready_notifier([impl] {
      {
        std::lock_guard<std::mutex> lock(impl->pending_mutex);
        impl->pending_accept = true;
      }
      impl->wake();
    });
  }
  impl_->listeners.push_back(std::move(listener));
}

void EventLoop::run() { impl_->run(); }

void EventLoop::request_stop() {
  impl_->stop_requested.store(true, std::memory_order_release);
  impl_->wake();
}

void EventLoop::notify_external() {
  const char byte = 0;
  [[maybe_unused]] const ssize_t n =
      ::write(impl_->wake_write_fd, &byte, 1);
}

EventLoop::Stats EventLoop::stats() const {
  Stats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.closed = closed_.load(std::memory_order_relaxed);
  stats.dropped = dropped_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.active = active_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace esm::serve
