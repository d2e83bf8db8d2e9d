// Noisy measurement channel over the deterministic latency model.
//
// Reproduces the paper's measurement methodology (§II-C.3, Fig. 4b, Fig. 6):
// each latency value is obtained by running the model `runs` times (default
// 150), discarding the slowest and fastest `trim_fraction` (default 20 %)
// and averaging the middle 60 %. Individual runs are perturbed by clock
// jitter, warm-up slowdown, occasional outlier spikes, and a slowly drifting
// session factor; sessions occasionally go "bad" (sustained thermal/clock
// drift), which is what the reference-model quality-control step detects.
//
// Measurements go through ONE entry point, measure(), which returns a
// MeasureResult: the trimmed-mean value (latency or energy), an optional
// per-run trace, the simulated wall-clock cost of acquiring it, and a
// MeasureOutcome. With a FaultProfile installed (hwsim/faults.hpp) an
// attempt can fail — timeout, mid-session dropout, transient read error —
// and the failure is reported as a value, never as silent corruption.
//
// The device also accounts the *simulated wall-clock cost* of measuring
// (per-run latency + host-side overhead, plus the cost of failed attempts),
// which powers the paper's data-acquisition-cost analysis (Fig. 4a).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "hwsim/energy_model.hpp"
#include "hwsim/faults.hpp"
#include "hwsim/latency_model.hpp"
#include "nn/graph.hpp"

namespace esm {

/// The paper's measurement protocol parameters.
struct MeasurementProtocol {
  int runs = 150;              ///< timed inferences per latency value
  double trim_fraction = 0.2;  ///< fraction discarded at each extreme
  int warmup_runs = 5;         ///< untimed warm-up inferences per model
};

/// What a measurement reads: per-inference latency or energy. Both ride the
/// same warm-up + runs + trimmed-mean protocol and the same noise channel.
enum class MeasureQuantity { kLatencyMs, kEnergyMj };

/// Options for one measure() call.
struct MeasureOptions {
  MeasureQuantity quantity = MeasureQuantity::kLatencyMs;

  /// Keep the per-run trace in the result (Fig. 4b).
  bool keep_trace = false;

  /// Explicit noise substream. When set, the measurement depends only on
  /// (session state, noise) — not on what else the session measured
  /// before it — and its cost is only RETURNED: the caller adds it via
  /// add_measurement_cost(). When unset, the measurement draws from the
  /// device's own sequential stream and its cost is accumulated directly.
  std::optional<Rng> noise;

  /// Position of this measurement in the session's task list and the
  /// list's length; used by the fault model to place mid-session dropouts.
  /// Leave at the defaults for measurements outside a session task list.
  int session_slot = -1;
  int session_tasks = 0;
};

/// The outcome of one measure() call. On failure (ok() == false) `value`
/// and `trace` are meaningless; `cost_seconds` still accounts the simulated
/// time the failed attempt burned.
struct MeasureResult {
  MeasureOutcome outcome = MeasureOutcome::kOk;
  double value = 0.0;          ///< trimmed mean: latency (ms) or energy (mJ)
  std::vector<double> trace;   ///< per-run values iff keep_trace was set
  double cost_seconds = 0.0;   ///< simulated acquisition cost of this attempt

  bool ok() const { return outcome == MeasureOutcome::kOk; }
};

/// A device under measurement: deterministic model + stochastic channel.
class SimulatedDevice {
 public:
  /// Binds a device spec and protocol to a seeded noise stream, optionally
  /// with a fault profile active from the first session.
  SimulatedDevice(DeviceSpec spec, std::uint64_t seed,
                  MeasurementProtocol protocol = {},
                  FaultProfile faults = {});

  const DeviceSpec& spec() const { return model_.spec(); }
  const MeasurementProtocol& protocol() const { return protocol_; }
  const LatencyModel& model() const { return model_; }

  /// Noise-free latency (what a perfect oracle would report).
  double true_latency_ms(const LayerGraph& graph) const;

  /// Noise-free per-inference energy in millijoules.
  double true_energy_mj(const LayerGraph& graph) const;

  /// Starts a new measurement session: draws a fresh session drift factor
  /// (occasionally a "bad" one), resets the intra-session random walk, and
  /// draws the session's fault regime (dropout, stuck clock).
  void begin_session();

  // --- campaign-journal replay hooks (esm/journal.hpp) -------------------
  // Substream measurements never advance the device's sequential stream,
  // so a journaled campaign can fast-forward a fresh same-seed device to
  // any batch boundary by replaying session begins alone — no measurement
  // runs, and every later draw lines up bit-identically.

  /// Replays `n` session begins, consuming exactly the draws the original
  /// sessions consumed.
  void replay_sessions(int n) {
    for (int i = 0; i < n; ++i) begin_session();
  }

  /// Restores the cost accumulator to a journaled absolute value (the
  /// replayed sessions' measurement costs were accounted externally and
  /// cannot be re-derived without re-measuring).
  void restore_measurement_cost(double seconds) { cost_seconds_ = seconds; }

  /// True if the current session drew the pathological drift regime. The
  /// QC step must *discover* this through reference models; it is exposed
  /// for tests and diagnostics only.
  bool session_is_bad() const { return session_is_bad_; }

  /// Installs a fault profile (hwsim/faults.hpp). Per-measurement faults
  /// (timeouts, read errors) apply immediately; the session-level regime
  /// (dropout, stuck clock) is drawn at the next begin_session().
  void set_fault_profile(const FaultProfile& profile);
  const FaultProfile& fault_profile() const { return injector_.profile(); }

  /// The current session's fault regime (tests and diagnostics only, like
  /// session_is_bad(): the pipeline must discover it through outcomes).
  const SessionFaults& session_faults() const { return session_faults_; }

  /// Simulates one full measurement of the graph under `options`: warm-up +
  /// `runs` timed inferences, trimmed mean (the paper's latency value), or
  /// an injected failure. See MeasureOptions for the sequential-vs-substream
  /// contract and MeasureResult for the outcome encoding.
  MeasureResult measure(const LayerGraph& graph,
                        const MeasureOptions& options = {});

  /// Adds externally accounted measuring time (substream measurements and
  /// retry backoff are charged to the device by the caller).
  void add_measurement_cost(double seconds) { cost_seconds_ += seconds; }

  /// Simulated seconds spent measuring so far (device + host overhead).
  double measurement_cost_seconds() const { return cost_seconds_; }

  /// Resets the cost accumulator (e.g. between experiment phases).
  void reset_measurement_cost() { cost_seconds_ = 0.0; }

  /// Applies the trimmed-mean protocol to a raw trace.
  static double summarize(const std::vector<double>& trace,
                          double trim_fraction);

 private:
  /// One noisy run drawn from an explicit stream and walk state; shared by
  /// the sequential path (device stream + persistent walk) and the
  /// substream path (local stream + local walk).
  double one_run_with(double true_ms, int run_index, Rng& rng,
                      double& walk_deviation) const;

  /// The full protocol (fault decision, warm-up, runs, trimmed mean) over
  /// an explicit stream and walk state. Does not touch member state.
  MeasureResult run_protocol(const LayerGraph& graph,
                             const MeasureOptions& options, Rng& rng,
                             double& walk_deviation) const;

  LatencyModel model_;
  EnergyModel energy_;
  MeasurementProtocol protocol_;
  FaultInjector injector_;
  Rng rng_;
  double session_factor_ = 1.0;
  double walk_sigma_ = 0.0;
  double walk_deviation_ = 0.0;
  bool session_is_bad_ = false;
  SessionFaults session_faults_;
  double cost_seconds_ = 0.0;
};

}  // namespace esm
