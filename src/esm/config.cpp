#include "esm/config.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "encoding/encoder.hpp"
#include "surrogate/registry.hpp"

namespace esm {

const char* eval_strategy_name(EvalStrategy s) {
  switch (s) {
    case EvalStrategy::kOverall: return "overall";
    case EvalStrategy::kBinWise: return "bin-wise";
  }
  return "unknown";
}

void JournalOptions::validate() const {
  ESM_REQUIRE(!resume || !path.empty(),
              "config: journal resume requires a journal path");
}

void EsmConfig::validate() const {
  ESM_REQUIRE(spec.num_units >= 1, "config: spec has no units");
  ESM_REQUIRE(SurrogateRegistry::instance().has(surrogate),
              "config: unknown surrogate '"
                  << surrogate << "' (registered: "
                  << join(SurrogateRegistry::instance().keys(), ", ")
                  << ")");
  ESM_REQUIRE(find_encoding_kind(encoder).has_value(),
              "config: unknown encoder '"
                  << encoder << "' (registered: "
                  << join(encoder_keys(), ", ") << ")");
  ESM_REQUIRE(ensemble_members >= 2,
              "config: ensemble_members must be >= 2");
  ESM_REQUIRE(n_initial >= 1, "config: N_I must be >= 1");
  ESM_REQUIRE(n_step >= 1, "config: N_Step must be >= 1");
  ESM_REQUIRE(w_below > 0.0 && w_above > 0.0,
              "config: bin weights must be positive");
  const int totals =
      spec.max_total_blocks() - spec.min_total_blocks() + 1;
  ESM_REQUIRE(n_bins >= 1 && n_bins <= totals,
              "config: N_Bins " << n_bins << " must be in [1, " << totals
                                << "]");
  ESM_REQUIRE(acc_threshold > 0.0 && acc_threshold < 1.0,
              "config: Acc_TH must be in (0, 1)");
  ESM_REQUIRE(max_iterations >= 1, "config: max_iterations must be >= 1");
  ESM_REQUIRE(n_test >= n_bins,
              "config: test set must cover every bin (n_test >= N_Bins)");
  ESM_REQUIRE(n_reference_models >= 1,
              "config: need at least one reference model");
  ESM_REQUIRE(qc_variance_limit > 0.0,
              "config: QC variance limit must be positive");
  ESM_REQUIRE(qc_max_attempts >= 1, "config: QC needs >= 1 attempt");
  ESM_REQUIRE(qc_baseline_sessions >= 1,
              "config: QC baselines need >= 1 session");
  faults.validate();
  retry.validate();
  journal.validate();
}

}  // namespace esm
