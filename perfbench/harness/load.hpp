// The saturated-phase load generator: one thread, several connections,
// each kept a fixed number of requests deep, serviced in whatever order
// replies arrive (poll over all sockets). Requests and replies are framed
// with the serving layer's own public encoders and parsers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

class LoadGenerator {
 public:
  enum class Wire { esm1, esm2 };

  /// Connects one socket per entry of `wires` to 127.0.0.1:`port`, with
  /// no socket options (the kernel defaults a plain client gets).
  LoadGenerator(int port, const std::vector<Wire>& wires);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Payload of the next predict request, and a tag handed back with its
  /// reply.
  using Next = std::function<std::string(std::uint64_t& tag)>;
  /// Called once per reply: its tag, whether it was ok, and its payload
  /// (the error text when not ok).
  using OnReply = std::function<void(std::uint64_t tag, bool ok,
                                     const std::string& payload)>;

  /// Keeps `depth` predicts in flight on every connection for `seconds`,
  /// then drains. Returns the replies received.
  std::size_t run(double seconds, std::size_t depth, const Next& next,
                  const OnReply& on_reply);

 private:
  struct Conn {
    int fd = -1;
    Wire wire = Wire::esm2;
    std::string in;
    std::deque<std::pair<std::uint64_t, std::uint64_t>> inflight;  ///< id, tag
  };

  void send(Conn& c, const Next& next);
  /// Reads what the socket holds and hands every complete reply on.
  std::size_t receive(Conn& c, const OnReply& on_reply);

  std::vector<Conn> conns_;
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
