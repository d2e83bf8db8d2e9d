#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>

#include "common/error.hpp"

namespace esm::serve {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int fd_flags = ::fcntl(fd, F_GETFD, 0);
  if (fd_flags >= 0) ::fcntl(fd, F_SETFD, fd_flags | FD_CLOEXEC);
}

/// Connection over a non-blocking socket fd (owned).
class FdConnection final : public Connection {
 public:
  explicit FdConnection(int fd) : fd_(fd) { set_nonblocking(fd_); }

  ~FdConnection() override {
    if (fd_ >= 0) ::close(fd_);
  }

  IoResult read_some(std::string& out) override {
    if (fd_ < 0) return IoResult::closed;
    char chunk[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        out.append(chunk, static_cast<std::size_t>(n));
        return IoResult::ok;
      }
      if (n == 0) return IoResult::closed;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::would_block;
      return IoResult::error;
    }
  }

  IoResult write_some(const std::string_view* bufs, std::size_t count,
                      std::size_t* offset) override {
    if (fd_ < 0) return IoResult::error;
    // Gather the unwritten tails into one sendmsg: writev with
    // MSG_NOSIGNAL, so a vanished peer is an error, not a SIGPIPE.
    struct iovec iov[kMaxWriteBufs];
    std::size_t iov_count = 0;
    std::size_t consumed = 0;
    for (std::size_t i = 0; i < count && iov_count < kMaxWriteBufs; ++i) {
      const std::size_t end = consumed + bufs[i].size();
      if (end > *offset && !bufs[i].empty()) {
        const std::size_t local = *offset > consumed ? *offset - consumed : 0;
        iov[iov_count].iov_base =
            const_cast<char*>(bufs[i].data() + local);
        iov[iov_count].iov_len = bufs[i].size() - local;
        ++iov_count;
      }
      consumed = end;
    }
    if (iov_count == 0) return IoResult::ok;
    for (;;) {
      struct msghdr msg {};
      msg.msg_iov = iov;
      msg.msg_iovlen = iov_count;
      const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (n >= 0) {
        *offset += static_cast<std::size_t>(n);
        return IoResult::ok;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::would_block;
      return IoResult::error;
    }
  }

  void close() override {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

  int poll_fd() const override { return fd_; }

 private:
  int fd_;
};

class TcpListener final : public Listener {
 public:
  explicit TcpListener(int fd) : fd_(fd) { set_nonblocking(fd_); }

  ~TcpListener() override { close(); }

  std::shared_ptr<Connection> accept_one() override {
    if (fd_ < 0) return nullptr;
    const int client = ::accept(fd_, nullptr, nullptr);
    // EMFILE/ENFILE and transient errors all land here: the loop simply
    // retries on the next readiness signal instead of dying.
    if (client < 0) return nullptr;
    return std::make_shared<FdConnection>(client);
  }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int poll_fd() const override { return fd_; }

 private:
  int fd_;
};

/// Shared state of one loopback connection: two byte buffers plus the
/// bookkeeping that makes the server half non-blocking and the client half
/// blocking. Everything is guarded by `mutex`; notifiers are copied out
/// and invoked unlocked so the reactor wake path cannot deadlock.
struct LoopbackState {
  std::mutex mutex;
  std::condition_variable client_cv;  ///< wakes a blocked receive_some
  std::string to_server;              ///< client -> server bytes
  std::string to_client;              ///< server -> client bytes
  std::size_t response_cap = 0;       ///< to_client bound; 0 = unbounded
  bool client_closed = false;
  bool server_closed = false;
  ReadyNotifier notify;  ///< event-loop wake for the server half
};

class LoopbackConnection final : public Connection {
 public:
  explicit LoopbackConnection(std::shared_ptr<LoopbackState> state)
      : state_(std::move(state)) {}

  ~LoopbackConnection() override { close(); }

  IoResult read_some(std::string& out) override {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->to_server.empty()) {
      return state_->client_closed ? IoResult::closed : IoResult::would_block;
    }
    out.append(state_->to_server);
    state_->to_server.clear();
    return IoResult::ok;
  }

  IoResult write_some(const std::string_view* bufs, std::size_t count,
                      std::size_t* offset) override {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->client_closed) return IoResult::error;
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) total += bufs[i].size();
    if (*offset >= total) return IoResult::ok;
    std::size_t room = total - *offset;
    if (state_->response_cap > 0) {
      if (state_->to_client.size() >= state_->response_cap) {
        return IoResult::would_block;
      }
      room = std::min(room,
                      state_->response_cap - state_->to_client.size());
    }
    // Append `room` bytes of the concatenation starting at *offset,
    // spanning buffers.
    std::size_t pos = *offset;
    std::size_t consumed = 0;
    std::size_t remaining = room;
    for (std::size_t i = 0; i < count && remaining > 0; ++i) {
      const std::size_t end = consumed + bufs[i].size();
      if (end > pos) {
        const std::size_t local = pos - consumed;
        const std::size_t take =
            std::min(bufs[i].size() - local, remaining);
        state_->to_client.append(bufs[i].data() + local, take);
        pos += take;
        remaining -= take;
      }
      consumed = end;
    }
    *offset = pos;
    state_->client_cv.notify_all();
    return IoResult::ok;
  }

  void close() override {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->server_closed = true;
    state_->client_cv.notify_all();
  }

  void set_ready_notifier(ReadyNotifier notify) override {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->notify = std::move(notify);
  }

 private:
  std::shared_ptr<LoopbackState> state_;
};

class LoopbackClient final : public ClientChannel {
 public:
  explicit LoopbackClient(std::shared_ptr<LoopbackState> state)
      : state_(std::move(state)) {}

  ~LoopbackClient() override { close(); }

  bool send(std::string_view bytes) override {
    ReadyNotifier notify;
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (state_->server_closed) return false;
      state_->to_server.append(bytes.data(), bytes.size());
      notify = state_->notify;
    }
    if (notify) notify();
    return true;
  }

  bool receive_some(std::string& out, int timeout_ms,
                    bool* timed_out) override {
    if (timed_out != nullptr) *timed_out = false;
    ReadyNotifier notify;
    bool drained_cap = false;
    {
      std::unique_lock<std::mutex> lock(state_->mutex);
      const auto arrived = [this] {
        return !state_->to_client.empty() || state_->server_closed;
      };
      if (timeout_ms < 0) {
        state_->client_cv.wait(lock, arrived);
      } else if (!state_->client_cv.wait_for(
                     lock, std::chrono::milliseconds(timeout_ms), arrived)) {
        if (timed_out != nullptr) *timed_out = true;
        return false;
      }
      if (state_->to_client.empty()) return false;
      drained_cap = state_->response_cap > 0 &&
                    state_->to_client.size() >= state_->response_cap;
      out.append(state_->to_client);
      state_->to_client.clear();
      notify = state_->notify;
    }
    // Draining a full capped buffer makes the server writable again; the
    // reactor must hear about it to retry the blocked flush.
    if (drained_cap && notify) notify();
    return true;
  }

  void close() override {
    ReadyNotifier notify;
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (state_->client_closed) return;
      state_->client_closed = true;
      state_->client_cv.notify_all();
      notify = state_->notify;
    }
    // The server half reads end-of-stream on its next readiness pass.
    if (notify) notify();
  }

 private:
  std::shared_ptr<LoopbackState> state_;
};

class LoopbackListenerImpl final : public LoopbackListener {
 public:
  std::shared_ptr<ClientChannel> connect(
      std::size_t response_buffer_cap) override {
    auto state = std::make_shared<LoopbackState>();
    state->response_cap = response_buffer_cap;
    auto server = std::make_shared<LoopbackConnection>(state);
    auto client = std::make_shared<LoopbackClient>(state);
    ReadyNotifier notify;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return nullptr;
      pending_.push_back(std::move(server));
      notify = notify_;
    }
    if (notify) notify();
    return client;
  }

  std::shared_ptr<Connection> accept_one() override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty()) return nullptr;
    std::shared_ptr<Connection> conn = std::move(pending_.front());
    pending_.pop_front();
    return conn;
  }

  void close() override {
    std::deque<std::shared_ptr<Connection>> orphaned;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      orphaned.swap(pending_);
    }
    // Never-accepted connections end cleanly: their clients see EOF.
    for (const std::shared_ptr<Connection>& conn : orphaned) conn->close();
  }

  void set_ready_notifier(ReadyNotifier notify) override {
    std::lock_guard<std::mutex> lock(mutex_);
    notify_ = std::move(notify);
  }

 private:
  std::mutex mutex_;
  std::deque<std::shared_ptr<Connection>> pending_;
  bool closed_ = false;
  ReadyNotifier notify_;
};

}  // namespace

std::unique_ptr<Listener> make_tcp_listener(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ESM_REQUIRE(fd >= 0, "socket(): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 256) != 0) {
    const int err = errno;
    ::close(fd);
    ESM_REQUIRE(false, "bind/listen(127.0.0.1:" << port
                                                << "): " << std::strerror(err));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  if (bound_port != nullptr) *bound_port = ntohs(addr.sin_port);
  return std::make_unique<TcpListener>(fd);
}

std::shared_ptr<LoopbackListener> make_loopback_listener() {
  return std::make_shared<LoopbackListenerImpl>();
}

}  // namespace esm::serve
