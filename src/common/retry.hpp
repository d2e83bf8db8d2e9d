// Retry policy shared by dataset generation and the serving client.
//
// Measurement attempts can fail (hwsim/faults.hpp); the dataset pipeline
// responds with bounded retries under exponential backoff. Backoff is
// charged in *simulated* seconds against the device cost accumulator, so
// the paper's data-acquisition-cost analysis (Fig. 4a) sees retry overhead
// exactly like it sees measurement time. The serving client
// (serve/client.hpp) reuses the same policy shape with wall-clock backoff
// for retrying overloaded/timed-out requests. Jitter is drawn from seeded
// Rng substreams, so a seed always yields the same retry schedule.
#pragma once

#include "common/rng.hpp"

namespace esm {

/// Bounds and shape of the per-measurement retry loop.
struct RetryPolicy {
  /// Total attempts per measurement, including the first (1 = no retries).
  int max_attempts = 3;

  /// Simulated seconds of backoff before the first retry.
  double backoff_base_s = 0.5;

  /// Growth factor between consecutive retries.
  double backoff_multiplier = 2.0;

  /// Relative jitter: each backoff is scaled by 1 + jitter * u, with u
  /// drawn uniformly from [-1, 1) off a seeded substream.
  double backoff_jitter = 0.25;

  /// Maximum extra attempts spent per measure_batch() call across all
  /// architectures; once exhausted, failing measurements are dropped for
  /// the session and the batch degrades gracefully.
  int batch_retry_budget = 256;

  /// Throws esm::ConfigError on non-positive attempts/budget or negative
  /// backoff parameters.
  void validate() const;

  /// Preset tuned for the serving client (serve/client.hpp): 4 attempts
  /// with a fast 50 ms first backoff, since serving retries wait in real
  /// wall-clock time rather than simulated device seconds.
  static RetryPolicy client_defaults();
};

/// Simulated backoff charged before retry number `retry_index` (1-based:
/// the first retry waits base * (1 + jitter*u), the next base * multiplier
/// * (1 + jitter*u'), ...). `jitter_rng` is consumed by value: pass a
/// dedicated substream so the draw cannot perturb measurement noise.
double retry_backoff_seconds(const RetryPolicy& policy, int retry_index,
                             Rng jitter_rng);

}  // namespace esm
