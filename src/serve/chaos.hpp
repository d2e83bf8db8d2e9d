// Deterministic chaos injection for the serving transport: seeded
// decorators around Connection/Listener that fragment, stall, and kill
// traffic the way real networks do, without any real nondeterminism.
//
// The decorators follow the hwsim fault-injection conventions
// (hwsim/faults.hpp): an all-zero profile injects nothing (and
// make_chaos_listener returns the inner listener untouched, so "chaos off"
// is byte-identical to no decorator at all); every decision is drawn from
// Rng substreams derived per accepted connection via Rng::split(accept
// index) without advancing the parent, so a chaos schedule replays
// bit-identically from one seed regardless of thread timing. A gather
// write draws for, and hands on, only the buffer holding its offset, so
// the schedule does not depend on how many buffers a flush gathers.
//
// Liveness contract — chaos must never hang the reactor:
//   * A fake stall leaves the data inside the inner transport. Fd-backed
//     connections re-announce it through level-triggered polling; fd-less
//     (loopback) connections get their ready-notifier re-invoked by the
//     decorator, so the loop always revisits the connection.
//   * A short read still returns ok with >= 1 byte (the Connection
//     contract), and the event loop reads until would_block, so stashed
//     bytes drain within the same readiness pass.
//   * Stashed bytes are always delivered before the inner connection is
//     read again (or reports closed), so no bytes reorder or vanish except
//     through an injected reset.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "serve/transport.hpp"

namespace esm::serve {

/// Per-connection chaos rates. The default (all-zero) profile injects
/// nothing. short_read/short_write fragment traffic but preserve every
/// byte; stall swallows readiness events (recovered by re-polling);
/// reset/connect_fail actually kill connections.
struct ChaosProfile {
  double short_read_p = 0.0;    ///< deliver exactly one byte per read
  double short_write_p = 0.0;   ///< accept exactly one byte per write
  double stall_p = 0.0;         ///< swallow one readiness event
  double reset_p = 0.0;         ///< kill the connection mid-stream
  double connect_fail_p = 0.0;  ///< kill the connection at accept time

  /// True if any injection can ever fire.
  bool any() const;

  /// Throws esm::ConfigError if any rate is outside [0, 1].
  void validate() const;
};

/// Named presets: "none" (all-zero), "mild" (heavy fragmentation and
/// occasional stalls, but every byte survives — responses stay
/// bit-identical to a calm transport), "harsh" (adds resets and
/// connect-time failures). Throws esm::ConfigError for unknown names.
ChaosProfile chaos_profile_by_name(const std::string& name);

/// Parses a profile from a preset name or comma-separated key=value pairs
/// over the ChaosProfile fields, e.g. "short_read_p=0.5,reset_p=0.01".
/// An empty string means "none". The result is validated.
ChaosProfile parse_chaos_profile(const std::string& text);

/// Wraps one connection; every decision draws from `rng` (pass a
/// substream, e.g. parent.split(i)). `profile` must be validated.
std::shared_ptr<Connection> make_chaos_connection(
    std::shared_ptr<Connection> inner, const ChaosProfile& profile, Rng rng);

/// Wraps a listener so every accepted connection is chaos-decorated with
/// its own substream of `seed` (keyed by accept index, so the schedule is
/// deterministic). A profile with !any() returns `inner` unchanged.
/// Validates the profile.
std::shared_ptr<Listener> make_chaos_listener(std::shared_ptr<Listener> inner,
                                              const ChaosProfile& profile,
                                              std::uint64_t seed);

}  // namespace esm::serve
