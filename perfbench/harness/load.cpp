#include "load.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

int connect_plain(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the server failed");
  }
  return fd;
}

}  // namespace

LoadGenerator::LoadGenerator(int port, const std::vector<Wire>& wires) {
  for (Wire w : wires) {
    Conn c;
    c.wire = w;
    conns_.push_back(std::move(c));
    conns_.back().fd = connect_plain(port);
  }
}

LoadGenerator::~LoadGenerator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void LoadGenerator::send(Conn& c, const Next& next) {
  std::uint64_t tag = 0;
  const std::string payload = next(tag);
  const std::uint64_t id = next_id_++;
  const std::string bytes =
      c.wire == Wire::esm2
          ? esm::serve::encode_request(id, esm::serve::FrameVerb::predict, payload)
          : "predict " + payload + "\n";
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(c.fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server closed a load connection");
    sent += static_cast<std::size_t>(n);
  }
  c.inflight.emplace_back(id, tag);
}

std::size_t LoadGenerator::receive(Conn& c, const OnReply& on_reply) {
  char chunk[64 * 1024];
  const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
  if (n < 0 && errno == EINTR) return 0;
  if (n <= 0) throw std::runtime_error("server closed a load connection");
  c.in.append(chunk, static_cast<std::size_t>(n));
  std::size_t replies = 0;
  if (c.wire == Wire::esm2) {
    for (;;) {
      esm::serve::Frame frame;
      std::string error;
      const esm::serve::FrameParse r =
          esm::serve::parse_frame(c.in, frame, error, 1 << 20);
      if (r == esm::serve::FrameParse::need_more) break;
      if (r == esm::serve::FrameParse::bad) throw std::runtime_error("bad reply frame: " + error);
      // esm2 replies may complete out of order; match by request id.
      auto it = c.inflight.begin();
      while (it != c.inflight.end() && it->first != frame.request_id) ++it;
      if (it == c.inflight.end()) throw std::runtime_error("reply to an unknown request id");
      const std::uint64_t tag = it->second;
      c.inflight.erase(it);
      const bool ok = frame.verb != esm::serve::kFrameErrorVerb;
      on_reply(tag, ok, frame.payload);
      ++replies;
    }
  } else {
    std::size_t start = 0;
    for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      esm::serve::ParsedResponse parsed;
      const bool framed =
          esm::serve::parse_response(c.in.substr(start, nl - start), parsed);
      if (c.inflight.empty()) throw std::runtime_error("unexpected esm1 reply");
      const std::uint64_t tag = c.inflight.front().second;
      c.inflight.pop_front();
      on_reply(tag, framed && parsed.ok, parsed.payload);
      ++replies;
    }
    c.in.erase(0, start);
  }
  return replies;
}

std::size_t LoadGenerator::run(double seconds, std::size_t depth,
                               const Next& next, const OnReply& on_reply) {
  for (Conn& c : conns_) {
    while (c.inflight.size() < depth) send(c, next);
  }
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) fds[i] = {conns_[i].fd, POLLIN, 0};
  std::size_t replies = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  bool draining = false;
  for (;;) {
    draining = draining || now_ns() >= end;
    bool pending = false;
    for (const Conn& c : conns_) pending = pending || !c.inflight.empty();
    if (draining && !pending) break;
    const int ready = ::poll(fds.data(), fds.size(), 100);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("poll() failed");
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      replies += receive(conns_[i], on_reply);
      if (!draining) {
        while (conns_[i].inflight.size() < depth) send(conns_[i], next);
      }
    }
  }
  return replies;
}

}  // namespace perfbench
