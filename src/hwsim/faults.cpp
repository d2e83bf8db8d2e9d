#include "hwsim/faults.hpp"

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace esm {
namespace {

/// Substream tag for per-attempt fault draws, derived from the attempt's
/// measurement noise stream without advancing it.
constexpr std::uint64_t kFaultNoiseStream = 0xfa017ab1ull;

}  // namespace

const char* measure_outcome_name(MeasureOutcome outcome) {
  switch (outcome) {
    case MeasureOutcome::kOk: return "ok";
    case MeasureOutcome::kTimeout: return "timeout";
    case MeasureOutcome::kDeviceLost: return "device-lost";
    case MeasureOutcome::kReadError: return "read-error";
  }
  return "unknown";
}

bool FaultProfile::any() const {
  return timeout_prob > 0.0 || read_error_prob > 0.0 || dropout_prob > 0.0 ||
         stuck_clock_prob > 0.0;
}

void FaultProfile::validate() const {
  auto rate_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
  ESM_REQUIRE(rate_ok(timeout_prob),
              "fault profile: timeout_prob must be in [0, 1]");
  ESM_REQUIRE(rate_ok(read_error_prob),
              "fault profile: read_error_prob must be in [0, 1]");
  ESM_REQUIRE(rate_ok(dropout_prob),
              "fault profile: dropout_prob must be in [0, 1]");
  ESM_REQUIRE(rate_ok(stuck_clock_prob),
              "fault profile: stuck_clock_prob must be in [0, 1]");
  ESM_REQUIRE(timeout_cost_s >= 0.0,
              "fault profile: timeout_cost_s must be >= 0");
  ESM_REQUIRE(stuck_clock_slowdown >= 0.0,
              "fault profile: stuck_clock_slowdown must be >= 0");
}

FaultProfile fault_profile_by_name(const std::string& name) {
  const std::string key = to_lower(name);
  if (key.empty() || key == "none") return {};
  if (key == "flaky") {
    FaultProfile p;
    p.timeout_prob = 0.01;
    p.read_error_prob = 0.03;
    p.dropout_prob = 0.02;
    p.stuck_clock_prob = 0.05;
    return p;
  }
  if (key == "harsh") {
    FaultProfile p;
    p.timeout_prob = 0.05;
    p.read_error_prob = 0.12;
    p.dropout_prob = 0.15;
    p.stuck_clock_prob = 0.20;
    p.stuck_clock_slowdown = 0.4;
    return p;
  }
  ESM_REQUIRE(false, "unknown fault profile '"
                         << name << "' (presets: none, flaky, harsh)");
  return {};  // unreachable
}

FaultProfile parse_fault_profile(const std::string& text) {
  if (text.find('=') == std::string::npos) {
    return fault_profile_by_name(text);
  }
  FaultProfile profile;
  parse_rate_profile(text, "fault profile",
                     {{"timeout_prob", &profile.timeout_prob},
                      {"timeout_cost_s", &profile.timeout_cost_s},
                      {"read_error_prob", &profile.read_error_prob},
                      {"dropout_prob", &profile.dropout_prob},
                      {"stuck_clock_prob", &profile.stuck_clock_prob},
                      {"stuck_clock_slowdown", &profile.stuck_clock_slowdown}});
  profile.validate();
  return profile;
}

FaultInjector::FaultInjector(FaultProfile profile)
    : profile_(profile) {
  profile_.validate();
}

void FaultInjector::set_profile(const FaultProfile& profile) {
  profile.validate();
  profile_ = profile;
}

SessionFaults FaultInjector::begin_session(Rng session_rng) const {
  SessionFaults session;
  if (!profile_.any()) return session;
  session.dropped = session_rng.bernoulli(profile_.dropout_prob);
  // The drop point strikes mid-session: never before any work is done,
  // never so late that it is indistinguishable from a clean session.
  session.drop_point = 0.1 + 0.8 * session_rng.uniform();
  session.stuck = session_rng.bernoulli(profile_.stuck_clock_prob);
  const double severity = 0.5 + 0.5 * session_rng.uniform();
  session.throttle_factor =
      session.stuck ? 1.0 + profile_.stuck_clock_slowdown * severity : 1.0;
  return session;
}

FaultDecision FaultInjector::decide(const SessionFaults& session, int slot,
                                    int tasks, const Rng& noise) const {
  FaultDecision decision;
  if (!profile_.any()) return decision;
  if (session.dropped && slot >= 0 && tasks > 0) {
    const int cut = static_cast<int>(session.drop_point *
                                     static_cast<double>(tasks));
    if (slot >= cut) {
      decision.outcome = MeasureOutcome::kDeviceLost;
      decision.progress = 0.0;
      return decision;
    }
  }
  Rng fault_rng = noise.split(kFaultNoiseStream);
  if (fault_rng.bernoulli(profile_.timeout_prob)) {
    decision.outcome = MeasureOutcome::kTimeout;
    decision.progress = fault_rng.uniform();
    return decision;
  }
  if (fault_rng.bernoulli(profile_.read_error_prob)) {
    decision.outcome = MeasureOutcome::kReadError;
    decision.progress = fault_rng.uniform();
    return decision;
  }
  return decision;
}

}  // namespace esm
