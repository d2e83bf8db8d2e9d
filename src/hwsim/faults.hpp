// Deterministic measurement-fault injection for the simulated devices.
//
// Real measurement campaigns on the paper's devices (RTX 4090, Pi 4) are not
// merely noisy: runs hang past a watchdog deadline, the device drops off the
// bus mid-session, readback transports hiccup, and clocks get stuck in a
// sustained throttle regime that session drift alone does not capture. This
// module injects those failure modes into SimulatedDevice so the dataset
// pipeline's fault tolerance (retry/backoff, quarantine, reference-model QC
// escalation — see common/retry.hpp and esm/dataset_gen.hpp) can be exercised
// and tested deterministically.
//
// Every decision is drawn from Rng substreams (Rng::split(id)) derived from
// the device's seeded streams WITHOUT advancing them, so (a) an all-zero
// profile leaves every existing output bit-identical, (b) enabling faults
// does not perturb the values of measurements that survive, and (c) fault
// schedules do not depend on the order in which attempts execute.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"

namespace esm {

/// How a single measurement attempt ended. Failures are values, not
/// exceptions: expected run-time conditions per the project conventions.
enum class MeasureOutcome {
  kOk = 0,
  kTimeout,     ///< a timed run exceeded the watchdog deadline
  kDeviceLost,  ///< the device dropped out mid-session
  kReadError,   ///< transient readback/transport error
};

const char* measure_outcome_name(MeasureOutcome outcome);

/// Per-device fault rates. The default (all-zero) profile injects nothing
/// and leaves every measurement bit-identical to a fault-free device.
struct FaultProfile {
  double timeout_prob = 0.0;     ///< per-measurement probability of a hang
  double timeout_cost_s = 5.0;   ///< simulated seconds lost per timeout
  double read_error_prob = 0.0;  ///< per-measurement transient read error
  double dropout_prob = 0.0;     ///< per-session mid-session device dropout
  double stuck_clock_prob = 0.0; ///< per-session sustained throttle regime
  double stuck_clock_slowdown = 0.25;  ///< max extra latency while stuck

  /// True if any fault can ever fire.
  bool any() const;

  /// Throws esm::ConfigError if any rate is outside [0, 1] or any cost or
  /// slowdown is negative.
  void validate() const;
};

/// Named presets: "none" (all-zero), "flaky" (occasional transient
/// failures), "harsh" (frequent failures, dropouts, throttle regimes).
/// Throws esm::ConfigError for unknown names, listing the valid ones.
FaultProfile fault_profile_by_name(const std::string& name);

/// Parses a profile from a preset name or comma-separated key=value pairs
/// over the FaultProfile fields, e.g. "read_error_prob=0.05,dropout_prob=0.1".
/// An empty string means "none". The result is validated.
FaultProfile parse_fault_profile(const std::string& text);

/// The fault regime of one device session, drawn once at begin_session().
struct SessionFaults {
  bool dropped = false;     ///< the device drops out during this session
  double drop_point = 1.0;  ///< fan-out fraction after which attempts fail
  bool stuck = false;       ///< sustained stuck-clock/throttle regime
  double throttle_factor = 1.0;  ///< latency multiplier while stuck
};

/// The decision for one measurement attempt. Outcomes depend only on the
/// session regime and the attempt's noise substream — never on measured
/// values or execution order — so a retry planner can
/// precompute the schedule without running any measurement.
struct FaultDecision {
  MeasureOutcome outcome = MeasureOutcome::kOk;
  double progress = 1.0;  ///< fraction of timed runs completed before failing
};

/// Draws session regimes and per-attempt decisions from explicit substreams.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultProfile profile);

  const FaultProfile& profile() const { return profile_; }
  void set_profile(const FaultProfile& profile);

  /// Draws the session fault regime. `session_rng` must be a substream
  /// derived from the device stream via Rng::split(id), so enabling faults
  /// does not perturb the device's other session draws.
  SessionFaults begin_session(Rng session_rng) const;

  /// Decides one measurement attempt. `slot`/`tasks` locate the attempt in
  /// the session fan-out (slot < 0: not part of a fan-out; dropouts do not
  /// apply). The fault substream is derived from `noise` without advancing
  /// it, so the attempt's measurement noise is unaffected.
  FaultDecision decide(const SessionFaults& session, int slot, int tasks,
                       const Rng& noise) const;

 private:
  FaultProfile profile_;
};

}  // namespace esm
