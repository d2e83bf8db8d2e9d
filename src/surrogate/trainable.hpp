// Trainable surrogate interface: the contract between the ESM loop and any
// concrete surrogate family. A TrainableSurrogate can be fit on an
// arch/latency dataset, queried like any LatencyPredictor, and persisted to
// the uniform artifact format (see save_surrogate in surrogate/registry.hpp
// for the self-describing header that wraps the state written by save()).
#pragma once

#include <span>
#include <string>

#include "common/archive.hpp"
#include "nets/arch.hpp"
#include "nets/supernet.hpp"
#include "surrogate/predictor.hpp"

namespace esm {

/// Training view over parallel architecture/latency arrays (non-owning).
struct SurrogateDataset {
  std::span<const ArchConfig> archs;
  std::span<const double> latencies_ms;

  std::size_t size() const { return archs.size(); }
};

/// A latency surrogate the ESM loop can train, retrain, and persist without
/// knowing its concrete family.
class TrainableSurrogate : public LatencyPredictor {
 public:
  /// Trains (or retrains from scratch) on the dataset.
  virtual void fit(const SurrogateDataset& data) = 0;

  /// True once fit() has run (or the state was loaded from an artifact).
  virtual bool fitted() const = 0;

  /// Stable family key ("mlp", "lut", "gbdt", "ensemble"); artifacts store
  /// this in their header so load_surrogate can dispatch.
  virtual std::string kind() const = 0;

  /// Canonical encoding key this surrogate was built with ("fcc",
  /// "onehot", ...); "none" for table-based surrogates that do not encode.
  virtual std::string encoder_key() const = 0;

  /// The search space this surrogate models.
  virtual const SupernetSpec& spec() const = 0;

  /// Writes the fitted model state. Only state owned by the surrogate —
  /// the registry writes the artifact header (format version, kind,
  /// encoder, spec) around this.
  virtual void save(ArchiveWriter& archive) const = 0;
};

}  // namespace esm
