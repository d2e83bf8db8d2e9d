#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "serve/error.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"

namespace esm::serve {
namespace {

/// Channel-level failure (closed stream, timed-out request): retryable
/// under set_retry once a reconnect factory is installed, unlike protocol
/// or configuration errors. Still a ConfigError so callers without retry
/// see the same exception type as before.
struct TransportError : ConfigError {
  using ConfigError::ConfigError;
};

/// Verbs safe to resend when the first attempt's fate is unknown. A
/// seeded search is a pure function of the artifact and its knobs, so
/// resending it returns byte-identical bytes.
bool is_idempotent(const std::string& verb) {
  return verb == "predict" || verb == "predict_batch" || verb == "info" ||
         verb == "models" || verb == "stats" || verb == "search";
}

/// Blocking channel over a connected TCP socket (owned fd).
class TcpChannel final : public ClientChannel {
 public:
  explicit TcpChannel(int fd) : fd_(fd) {}

  ~TcpChannel() override { close(); }

  bool send(std::string_view bytes) override {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool receive_some(std::string& out, int timeout_ms,
                    bool* timed_out) override {
    if (timed_out != nullptr) *timed_out = false;
    // A bounded wait polls first; an unbounded one is a single blocking
    // recv, with no poll in front of it.
    if (timeout_ms >= 0) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      int ready;
      while ((ready = ::poll(&pfd, 1, timeout_ms)) < 0 && errno == EINTR) {
      }
      if (ready <= 0) {
        if (ready == 0 && timed_out != nullptr) *timed_out = true;
        return false;
      }
    }
    char chunk[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        out.append(chunk, static_cast<std::size_t>(n));
        return true;
      }
      if (n == 0 || errno != EINTR) return false;
    }
  }

  void close() override {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_;
};

}  // namespace

std::shared_ptr<ClientChannel> connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ESM_REQUIRE(fd >= 0, "socket(): " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    ESM_REQUIRE(false, "'" << host << "' is not an IPv4 address");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    ESM_REQUIRE(false,
                "connect(" << host << ":" << port
                           << "): " << std::strerror(err));
  }
  return std::make_shared<TcpChannel>(fd);
}

EsmClient::EsmClient(std::shared_ptr<ClientChannel> channel, Protocol protocol)
    : channel_(std::move(channel)), protocol_(protocol) {
  // Single attempt until set_retry installs a policy: the PR-8 behavior.
  retry_.max_attempts = 1;
}

std::uint64_t EsmClient::submit(const std::string& verb,
                                const std::string& payload) {
  const std::uint64_t id = next_id_++;
  if (protocol_ == Protocol::esm2) {
    FrameVerb frame_verb;
    ESM_REQUIRE(parse_frame_verb(verb, frame_verb),
                "'" << verb << "' is not an esm2 verb");
    if (!channel_->send(encode_request(id, frame_verb, payload))) {
      throw TransportError("server closed before the request could be sent");
    }
  } else {
    std::string line = verb;
    if (!payload.empty()) {
      line += ' ';
      line += payload;
    }
    line += '\n';
    if (!channel_->send(line)) {
      throw TransportError("server closed before the request could be sent");
    }
    fifo_.push_back(id);
  }
  ++outstanding_;
  return id;
}

void EsmClient::decode_buffered() {
  if (protocol_ == Protocol::esm2) {
    for (;;) {
      Frame frame;
      std::string error;
      const FrameParse r = parse_frame(in_, frame, error, 64u << 20);
      if (r == FrameParse::need_more) break;
      ESM_REQUIRE(r == FrameParse::ok, "esm2 response: " << error);
      Response response;
      if (frame.verb == kFrameErrorVerb) {
        std::uint8_t code = 0;
        std::string_view detail;
        ESM_REQUIRE(split_error_payload(frame.payload, code, detail),
                    "esm2 error frame with an empty payload");
        ESM_REQUIRE(frame.request_id != 0,
                    "connection-level esm2 error: " << detail);
        response.ok = false;
        response.verb_or_code = to_string(static_cast<ErrorCode>(code));
        response.payload = std::string(detail);
        response.raw = "esm2 err " + response.verb_or_code + " " +
                       response.payload;
      } else {
        ESM_REQUIRE((frame.verb & kFrameResponseBit) != 0,
                    "esm2 frame without the response bit");
        response.ok = true;
        response.verb_or_code = std::string(frame_verb_name(
            static_cast<std::uint8_t>(frame.verb & ~kFrameResponseBit)));
        response.payload = std::move(frame.payload);
        response.raw = "esm2 ok " + response.verb_or_code;
        if (!response.payload.empty()) {
          response.raw += ' ';
          response.raw += response.payload;
        }
      }
      completed_.emplace(frame.request_id, std::move(response));
    }
  } else {
    std::size_t newline;
    while ((newline = in_.find('\n')) != std::string::npos) {
      std::string line = in_.substr(0, newline);
      in_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      ParsedResponse parsed;
      ESM_REQUIRE(parse_response(line, parsed),
                  "unparseable server response: '" << line << "'");
      ESM_REQUIRE(!fifo_.empty(),
                  "esm1 response with no request outstanding");
      Response response;
      response.ok = parsed.ok;
      response.verb_or_code = std::move(parsed.verb_or_code);
      response.payload = std::move(parsed.payload);
      response.raw = std::move(line);
      completed_.emplace(fifo_.front(), std::move(response));
      fifo_.erase(fifo_.begin());
    }
  }
}

bool EsmClient::pump(int timeout_ms) {
  const std::size_t before = completed_.size();
  for (;;) {
    // Decode everything already buffered first.
    decode_buffered();
    if (completed_.size() != before) return true;
    bool timed_out = false;
    if (!channel_->receive_some(in_, timeout_ms, &timed_out)) {
      if (timed_out) return false;
      throw TransportError("server stream ended before a response arrived");
    }
  }
}

EsmClient::Response EsmClient::await(std::uint64_t id) {
  Response response;
  await_for(id, -1.0, response);
  return response;
}

bool EsmClient::await_for(std::uint64_t id, double timeout_s, Response& out) {
  // Without a deadline the clock is never read.
  const bool bounded = timeout_s >= 0.0;
  std::chrono::steady_clock::time_point deadline;
  if (bounded) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(timeout_s));
  }
  for (;;) {
    const auto it = completed_.find(id);
    if (it != completed_.end()) {
      out = std::move(it->second);
      completed_.erase(it);
      if (outstanding_ > 0) --outstanding_;
      return true;
    }
    int timeout_ms = -1;
    if (bounded) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
      timeout_ms = static_cast<int>(left.count()) + 1;
    }
    pump(timeout_ms);
  }
}

void EsmClient::set_retry(const esm::RetryPolicy& policy, std::uint64_t seed) {
  policy.validate();
  retry_ = policy;
  retry_rng_ = Rng(seed);
  retry_draws_ = 0;
}

void EsmClient::set_request_timeout(double seconds) {
  ESM_REQUIRE(seconds >= 0.0, "request timeout must be >= 0");
  request_timeout_s_ = seconds;
}

void EsmClient::set_reconnect(ChannelFactory factory) {
  reconnect_ = std::move(factory);
}

void EsmClient::reconnect() {
  ESM_REQUIRE(reconnect_ != nullptr,
              "client channel failed and no reconnect factory is installed");
  channel_->close();
  std::shared_ptr<ClientChannel> fresh = reconnect_();
  ESM_REQUIRE(fresh != nullptr, "reconnect factory returned no channel");
  channel_ = std::move(fresh);
  in_.clear();
  fifo_.clear();
  completed_.clear();
  outstanding_ = 0;
}

EsmClient::Response EsmClient::call_once(const std::string& verb,
                                         const std::string& payload) {
  const std::uint64_t id = submit(verb, payload);
  if (request_timeout_s_ <= 0.0) return await(id);
  Response response;
  if (await_for(id, request_timeout_s_, response)) return response;
  // Past the timeout the channel is unusable: a late response for this id
  // would desync every later request, so tear the connection down and let
  // the retry loop (or the caller) reconnect.
  channel_->close();
  std::ostringstream os;
  os << "request '" << verb << "' timed out after " << request_timeout_s_
     << " s";
  throw TransportError(os.str());
}

EsmClient::Response EsmClient::call(const std::string& verb,
                                    const std::string& payload) {
  const int attempts = is_idempotent(verb) ? retry_.max_attempts : 1;
  for (int attempt = 1;; ++attempt) {
    // Reconnecting wipes pipeline state, so transport-level retries only
    // engage when this call is the sole request in flight.
    const bool others_in_flight = outstanding_ > 0;
    bool retry_transport = false;
    try {
      Response response = call_once(verb, payload);
      if (response.ok || attempt >= attempts) return response;
      ErrorCode code;
      if (!parse_error_code(response.verb_or_code, code) ||
          !error_code_retryable(code)) {
        return response;
      }
    } catch (const TransportError&) {
      if (attempt >= attempts || others_in_flight || !reconnect_) throw;
      retry_transport = true;
    }
    if (retry_transport) reconnect();
    const double backoff_s = esm::retry_backoff_seconds(
        retry_, attempt, retry_rng_.split(retry_draws_++));
    if (backoff_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
    }
  }
}

EsmClient::Response EsmClient::call_line(const std::string& line) {
  const ParsedRequest request = split_request(line);
  return call(request.verb, request.payload);
}

EsmClient::Response EsmClient::expect_ok(const std::string& verb,
                                         const std::string& payload) {
  Response response = call(verb, payload);
  ESM_REQUIRE(response.ok, "server replied " << response.verb_or_code << ": "
                                             << response.payload);
  return response;
}

double EsmClient::predict(const std::string& arch_spec) {
  return std::strtod(expect_ok("predict", arch_spec).payload.c_str(), nullptr);
}

double EsmClient::predict(const std::string& model,
                          const std::string& arch_spec) {
  return std::strtod(expect_ok("predict", model + " " + arch_spec)
                         .payload.c_str(),
                     nullptr);
}

std::vector<double> EsmClient::predict_batch(
    const std::vector<std::string>& specs) {
  return predict_batch("", specs);
}

std::vector<double> EsmClient::predict_batch(
    const std::string& model, const std::vector<std::string>& specs) {
  std::string payload;
  if (!model.empty()) payload = model + " ";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) payload += ';';
    payload += specs[i];
  }
  const Response response = expect_ok("predict_batch", payload);
  std::istringstream tokens(response.payload);
  std::size_t n = 0;
  ESM_REQUIRE(static_cast<bool>(tokens >> n),
              "malformed predict_batch payload '" << response.payload << "'");
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string v;
    ESM_REQUIRE(static_cast<bool>(tokens >> v),
                "predict_batch payload truncated at value " << i);
    values.push_back(std::strtod(v.c_str(), nullptr));
  }
  return values;
}

std::map<std::string, std::string> EsmClient::info() {
  return parse_kv_payload(expect_ok("info", "").payload);
}

std::map<std::string, std::string> EsmClient::info(const std::string& model) {
  return parse_kv_payload(expect_ok("info", model).payload);
}

std::map<std::string, std::string> EsmClient::stats() {
  return parse_kv_payload(expect_ok("stats", "").payload);
}

std::vector<std::string> EsmClient::models() {
  const Response response = expect_ok("models", "");
  std::vector<std::string> names;
  std::istringstream tokens(response.payload);
  std::string name;
  while (tokens >> name) names.push_back(name);
  return names;
}

std::string EsmClient::search(const std::string& request) {
  return expect_ok("search", request).payload;
}

void EsmClient::reload(const std::string& artifact_path) {
  expect_ok("reload", artifact_path);
}

void EsmClient::shutdown() { expect_ok("shutdown", ""); }

}  // namespace esm::serve
