#include "serve/chaos.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace esm::serve {
namespace {

class ChaosConnection final : public Connection {
 public:
  ChaosConnection(std::shared_ptr<Connection> inner, ChaosProfile profile,
                  Rng rng)
      : inner_(std::move(inner)), profile_(profile), rng_(rng) {}

  IoResult read_some(std::string& out) override {
    if (dead_) return IoResult::error;
    // Stashed bytes left the inner transport already — no readiness event
    // will re-announce them, so they must go out before anything else.
    if (!stash_.empty()) {
      deliver(out);
      return IoResult::ok;
    }
    if (profile_.reset_p > 0.0 && rng_.bernoulli(profile_.reset_p)) {
      dead_ = true;
      inner_->close();
      return IoResult::error;
    }
    if (profile_.stall_p > 0.0 && rng_.bernoulli(profile_.stall_p)) {
      // Swallow this readiness event; the data stays inside the inner
      // transport. Fd-backed connections re-poll level-triggered; fd-less
      // ones need their notifier re-fired or the loop would never return.
      if (inner_->poll_fd() < 0 && notify_) notify_();
      return IoResult::would_block;
    }
    const IoResult result = inner_->read_some(stash_);
    if (result != IoResult::ok) return result;
    deliver(out);
    return IoResult::ok;
  }

  IoResult write_some(const std::string_view* bufs, std::size_t count,
                      std::size_t* offset) override {
    // Chaos acts on the buffer holding *offset and hands the inner
    // connection that buffer alone, so a seeded schedule draws the same
    // however many buffers the caller gathers.
    std::size_t start = 0;
    std::size_t i = 0;
    for (; i < count && start + bufs[i].size() <= *offset; ++i) {
      start += bufs[i].size();
    }
    if (i == count) return IoResult::ok;
    if (dead_) return IoResult::error;
    if (profile_.reset_p > 0.0 && rng_.bernoulli(profile_.reset_p)) {
      dead_ = true;
      inner_->close();
      return IoResult::error;
    }
    if (profile_.stall_p > 0.0 && rng_.bernoulli(profile_.stall_p)) {
      // The loop marks want_write on would_block: fd-backed connections
      // get a level-triggered POLLOUT, fd-less ones the re-fired notifier.
      if (inner_->poll_fd() < 0 && notify_) notify_();
      return IoResult::would_block;
    }
    std::string_view data = bufs[i];
    std::size_t local = *offset - start;
    if (profile_.short_write_p > 0.0 && data.size() - local > 1 &&
        rng_.bernoulli(profile_.short_write_p)) {
      data = data.substr(0, local + 1);  // accept exactly one byte
    }
    const IoResult result = inner_->write_some(&data, 1, &local);
    *offset = start + local;
    return result;
  }

  void close() override { inner_->close(); }

  int poll_fd() const override { return inner_->poll_fd(); }

  void set_ready_notifier(ReadyNotifier notify) override {
    notify_ = notify;
    inner_->set_ready_notifier(std::move(notify));
  }

 private:
  void deliver(std::string& out) {
    if (profile_.short_read_p > 0.0 && stash_.size() > 1 &&
        rng_.bernoulli(profile_.short_read_p)) {
      out.push_back(stash_.front());
      stash_.erase(0, 1);
      // Still ok-with-progress: the loop keeps reading until would_block,
      // so the rest of the stash drains within this readiness pass.
      return;
    }
    out.append(stash_);
    stash_.clear();
  }

  std::shared_ptr<Connection> inner_;
  ChaosProfile profile_;
  Rng rng_;
  std::string stash_;    ///< read from inner, not yet delivered
  ReadyNotifier notify_;  ///< loop's wakeup, re-fired on fd-less stalls
  bool dead_ = false;
};

class ChaosListener final : public Listener {
 public:
  ChaosListener(std::shared_ptr<Listener> inner, ChaosProfile profile,
                std::uint64_t seed)
      : inner_(std::move(inner)), profile_(profile), rng_(seed) {}

  std::shared_ptr<Connection> accept_one() override {
    std::shared_ptr<Connection> conn = inner_->accept_one();
    if (conn == nullptr) return nullptr;
    // Substream keyed by accept index: the parent never advances, so the
    // i-th connection's chaos schedule is a pure function of (seed, i).
    Rng sub = rng_.split(accepted_++);
    if (profile_.connect_fail_p > 0.0 &&
        sub.bernoulli(profile_.connect_fail_p)) {
      // Connect-time failure: hand the loop an already-dead connection; it
      // registers it and immediately reads end-of-stream, exactly like a
      // peer that vanished during the handshake.
      conn->close();
      return conn;
    }
    return std::make_shared<ChaosConnection>(std::move(conn), profile_, sub);
  }

  void close() override { inner_->close(); }

  int poll_fd() const override { return inner_->poll_fd(); }

  void set_ready_notifier(ReadyNotifier notify) override {
    inner_->set_ready_notifier(std::move(notify));
  }

 private:
  std::shared_ptr<Listener> inner_;
  ChaosProfile profile_;
  Rng rng_;
  std::uint64_t accepted_ = 0;
};

}  // namespace

bool ChaosProfile::any() const {
  return short_read_p > 0.0 || short_write_p > 0.0 || stall_p > 0.0 ||
         reset_p > 0.0 || connect_fail_p > 0.0;
}

void ChaosProfile::validate() const {
  auto rate_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
  ESM_REQUIRE(rate_ok(short_read_p),
              "chaos profile: short_read_p must be in [0, 1]");
  ESM_REQUIRE(rate_ok(short_write_p),
              "chaos profile: short_write_p must be in [0, 1]");
  ESM_REQUIRE(rate_ok(stall_p), "chaos profile: stall_p must be in [0, 1]");
  ESM_REQUIRE(rate_ok(reset_p), "chaos profile: reset_p must be in [0, 1]");
  ESM_REQUIRE(rate_ok(connect_fail_p),
              "chaos profile: connect_fail_p must be in [0, 1]");
}

ChaosProfile chaos_profile_by_name(const std::string& name) {
  const std::string key = to_lower(name);
  if (key.empty() || key == "none") return {};
  if (key == "mild") {
    // Fragmentation and stalls only: every byte survives, so served
    // values stay bit-identical to a calm transport.
    ChaosProfile p;
    p.short_read_p = 0.25;
    p.short_write_p = 0.25;
    p.stall_p = 0.05;
    return p;
  }
  if (key == "harsh") {
    ChaosProfile p;
    p.short_read_p = 0.4;
    p.short_write_p = 0.4;
    p.stall_p = 0.1;
    p.reset_p = 0.02;
    p.connect_fail_p = 0.05;
    return p;
  }
  ESM_REQUIRE(false, "unknown chaos profile '"
                         << name << "' (presets: none, mild, harsh)");
  return {};  // unreachable
}

ChaosProfile parse_chaos_profile(const std::string& text) {
  if (text.find('=') == std::string::npos) {
    return chaos_profile_by_name(text);
  }
  ChaosProfile profile;
  parse_rate_profile(text, "chaos profile",
                     {{"short_read_p", &profile.short_read_p},
                      {"short_write_p", &profile.short_write_p},
                      {"stall_p", &profile.stall_p},
                      {"reset_p", &profile.reset_p},
                      {"connect_fail_p", &profile.connect_fail_p}});
  profile.validate();
  return profile;
}

std::shared_ptr<Connection> make_chaos_connection(
    std::shared_ptr<Connection> inner, const ChaosProfile& profile, Rng rng) {
  profile.validate();
  return std::make_shared<ChaosConnection>(std::move(inner), profile, rng);
}

std::shared_ptr<Listener> make_chaos_listener(std::shared_ptr<Listener> inner,
                                              const ChaosProfile& profile,
                                              std::uint64_t seed) {
  profile.validate();
  if (!profile.any()) return inner;
  return std::make_shared<ChaosListener>(std::move(inner), profile, seed);
}

}  // namespace esm::serve
