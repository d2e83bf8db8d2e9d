#include "hwsim/measurement.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace esm {
namespace {

/// Substream tag for the session fault regime, derived from the device
/// stream without advancing it (zero-profile sessions stay bit-identical).
constexpr std::uint64_t kSessionFaultStream = 0x5e5510f0ull;

}  // namespace

SimulatedDevice::SimulatedDevice(DeviceSpec spec, std::uint64_t seed,
                                 MeasurementProtocol protocol,
                                 FaultProfile faults)
    : model_(spec),
      energy_(spec),
      protocol_(protocol),
      injector_(faults),
      rng_(seed) {
  ESM_REQUIRE(protocol_.runs >= 1, "measurement protocol needs >= 1 run");
  ESM_REQUIRE(protocol_.trim_fraction >= 0.0 && protocol_.trim_fraction < 0.5,
              "trim_fraction must be in [0, 0.5)");
  begin_session();
}

double SimulatedDevice::true_latency_ms(const LayerGraph& graph) const {
  return model_.true_latency_ms(graph);
}

double SimulatedDevice::true_energy_mj(const LayerGraph& graph) const {
  return energy_.true_energy_mj(graph);
}

void SimulatedDevice::begin_session() {
  const DeviceSpec& d = spec();
  session_is_bad_ = rng_.bernoulli(d.bad_session_prob);
  const double drift_cv =
      session_is_bad_ ? d.bad_session_drift_cv : d.session_drift_cv;
  // Drift is a sustained multiplicative offset; bad sessions are slow
  // (throttled), so their offset is one-sided.
  const double offset = rng_.normal(0.0, drift_cv);
  session_factor_ = 1.0 + (session_is_bad_ ? std::abs(offset) : offset);
  // Clocks hunt around the session set point: a mean-reverting
  // (Ornstein-Uhlenbeck) deviation, much wider in bad sessions.
  walk_sigma_ = session_is_bad_ ? 0.0030 : 0.0006;
  walk_deviation_ = 0.0;
  // The fault regime rides a non-advancing substream: the drift draws above
  // (and every later measurement draw) are independent of the fault profile.
  session_faults_ = injector_.begin_session(rng_.split(kSessionFaultStream));
}

void SimulatedDevice::set_fault_profile(const FaultProfile& profile) {
  injector_.set_profile(profile);
}

double SimulatedDevice::one_run_with(double true_ms, int run_index, Rng& rng,
                                     double& walk_deviation) const {
  const DeviceSpec& d = spec();
  // Mean-reverting intra-session clock deviation (stationary std is about
  // 10x walk_sigma_ at this reversion rate, i.e. ~0.6 % in good sessions).
  walk_deviation = 0.995 * walk_deviation + rng.normal(0.0, walk_sigma_);
  double value = true_ms * session_factor_ * (1.0 + walk_deviation);
  // Warm-up: caches/JIT settle over the first few runs.
  if (run_index < 3) {
    value *= 1.0 + d.warmup_amplitude * std::exp(-run_index);
  }
  // Per-run clock jitter.
  value *= 1.0 + rng.normal(0.0, d.run_noise_cv);
  // Occasional outlier spike (scheduler preemption, throttle event).
  if (rng.bernoulli(d.outlier_prob)) {
    value *= d.outlier_scale * (1.0 + 0.5 * rng.uniform());
  }
  return std::max(value, 1e-6);
}

MeasureResult SimulatedDevice::run_protocol(const LayerGraph& graph,
                                            const MeasureOptions& options,
                                            Rng& rng,
                                            double& walk_deviation) const {
  const DeviceSpec& d = spec();
  // The fault decision is drawn from a non-advancing substream of `rng`
  // BEFORE any measurement draw: surviving measurements see exactly the
  // stream they would see with faults disabled.
  const FaultDecision decision =
      injector_.decide(session_faults_, options.session_slot,
                       options.session_tasks, rng);
  // A stuck clock stretches every inference; the factor is exactly 1.0
  // outside a stuck regime, so the arithmetic below is bit-identical to the
  // fault-free pipeline.
  const double throttle = session_faults_.throttle_factor;
  const double true_ms = model_.true_latency_ms(graph) * throttle;
  const double value_basis = options.quantity == MeasureQuantity::kEnergyMj
                                 ? energy_.true_energy_mj(graph) * throttle
                                 : true_ms;
  const double run_cost_floor_s = (true_ms + d.host_overhead_ms) / 1000.0;

  MeasureResult result;
  if (decision.outcome != MeasureOutcome::kOk) {
    result.outcome = decision.outcome;
    switch (decision.outcome) {
      case MeasureOutcome::kTimeout:
        // The watchdog fires after a fixed simulated deadline.
        result.cost_seconds = injector_.profile().timeout_cost_s;
        break;
      case MeasureOutcome::kDeviceLost:
        // The device was already gone; only host-side setup time is lost.
        result.cost_seconds =
            static_cast<double>(protocol_.warmup_runs) * run_cost_floor_s;
        break;
      case MeasureOutcome::kReadError:
        // Warm-up plus the fraction of timed runs completed before the
        // readback failed.
        result.cost_seconds =
            (static_cast<double>(protocol_.warmup_runs) +
             decision.progress * static_cast<double>(protocol_.runs)) *
            run_cost_floor_s;
        break;
      case MeasureOutcome::kOk:
        break;
    }
    // Advance the stream so a sequential retry on the same device stream
    // sees a fresh fault substream instead of replaying this failure.
    (void)rng.split();
    return result;
  }

  // Warm-up inferences cost time but produce no samples.
  for (int i = 0; i < protocol_.warmup_runs; ++i) {
    result.cost_seconds += run_cost_floor_s;
  }
  std::vector<double> trace;
  trace.reserve(static_cast<std::size_t>(protocol_.runs));
  for (int i = 0; i < protocol_.runs; ++i) {
    const double run = one_run_with(value_basis, i, rng, walk_deviation);
    trace.push_back(run);
    // Latency runs are timed by their own noisy duration; energy readings
    // ride the clock/thermal channel but the device still spends the
    // (throttled) true latency per inference.
    result.cost_seconds += options.quantity == MeasureQuantity::kLatencyMs
                               ? (run + d.host_overhead_ms) / 1000.0
                               : run_cost_floor_s;
  }
  result.value = summarize(trace, protocol_.trim_fraction);
  if (options.keep_trace) result.trace = std::move(trace);
  return result;
}

MeasureResult SimulatedDevice::measure(const LayerGraph& graph,
                                       const MeasureOptions& options) {
  if (options.noise.has_value()) {
    // The clock walk starts at the session set point for every substream:
    // the measurement depends only on the session state and the stream,
    // and its cost is only returned.
    Rng noise = *options.noise;
    double walk_deviation = 0.0;
    return run_protocol(graph, options, noise, walk_deviation);
  }
  MeasureResult result = run_protocol(graph, options, rng_, walk_deviation_);
  cost_seconds_ += result.cost_seconds;
  return result;
}

double SimulatedDevice::summarize(const std::vector<double>& trace,
                                  double trim_fraction) {
  return trimmed_mean(trace, trim_fraction);
}

}  // namespace esm
