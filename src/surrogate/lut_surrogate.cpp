#include "surrogate/lut_surrogate.hpp"

#include <sstream>

#include "common/error.hpp"

namespace esm {

LutSurrogate::LutSurrogate(SupernetSpec spec, SimulatedDevice& device)
    : spec_(std::move(spec)), device_(&device) {}

LutSurrogate::LutSurrogate(SupernetSpec spec,
                           std::map<std::string, double> table)
    : spec_(std::move(spec)), device_(nullptr), table_(std::move(table)) {
  ESM_REQUIRE(!table_.empty(),
              "a device-less LUT surrogate needs a non-empty table");
}

void LutSurrogate::fit(const SurrogateDataset& data) {
  ESM_REQUIRE(data.size() > 0, "LutSurrogate::fit requires data");
  warm_table(data.archs);
  if (data.size() >= 2) {
    fit_bias_correction(data.archs, data.latencies_ms);
  }
}

std::string LutSurrogate::signature(const Layer& layer) {
  std::ostringstream os;
  os << layer_kind_name(layer.kind) << ':' << layer.kernel << ':'
     << layer.stride << ':' << layer.groups << ':' << layer.input.channels
     << 'x' << layer.input.height << 'x' << layer.input.width << ':'
     << layer.aux_input.channels << ':' << layer.output.channels << 'x'
     << layer.output.height << 'x' << layer.output.width;
  return os.str();
}

double LutSurrogate::layer_cost_ms(const Layer& layer) const {
  const std::string key = signature(layer);
  const auto it = table_.find(key);
  if (it != table_.end()) return it->second;
  ESM_REQUIRE(device_ != nullptr,
              "LUT surrogate has no device to profile layer '"
                  << key
                  << "' (artifact-loaded LUTs serve saved table entries "
                     "only)");

  // Profile the layer in isolation: a single-kernel probe graph measured
  // with the full protocol (warm-up + 150 runs + trimmed mean). The probe
  // runs cold and unfused, exactly like a real isolated-kernel profiling
  // pass — which is precisely why the additive sum mispredicts networks
  // whose element-wise layers execute as fused epilogues.
  LayerGraph probe("probe");
  probe.add(layer);
  // A faulted probe (hwsim/faults.hpp) must not poison the table with a
  // zero entry; fall back to the noise-free latency for this layer.
  const MeasureResult result = device_->measure(probe);
  const double measured =
      result.ok() ? result.value : device_->true_latency_ms(probe);
  table_.emplace(key, measured);
  return measured;
}

double LutSurrogate::lut_ms(const ArchConfig& arch) const {
  const LayerGraph graph = build_graph(spec_, arch);
  double total = 0.0;
  for (const Layer& layer : graph.layers()) {
    total += layer_cost_ms(layer);
  }
  return total;
}

void LutSurrogate::warm_table(std::span<const ArchConfig> archs) {
  for (const ArchConfig& arch : archs) (void)lut_ms(arch);
}

void LutSurrogate::fit_bias_correction(std::span<const ArchConfig> archs,
                                       std::span<const double> measured_ms) {
  ESM_REQUIRE(archs.size() == measured_ms.size(),
              "bias-correction data mismatch");
  ESM_REQUIRE(archs.size() >= 2, "bias correction needs >= 2 samples");
  Matrix x(archs.size(), 1);
  for (std::size_t i = 0; i < archs.size(); ++i) {
    x(i, 0) = lut_ms(archs[i]);
  }
  LinearRegression reg;
  reg.fit(x, measured_ms);
  bias_correction_ = std::move(reg);
}

void LutSurrogate::set_bias_state(std::vector<double> weights,
                                  double intercept) {
  LinearRegression reg;
  reg.set_state(std::move(weights), intercept);
  bias_correction_ = std::move(reg);
}

double LutSurrogate::predict_ms(const ArchConfig& arch) const {
  const double raw = lut_ms(arch);
  if (!bias_correction_) return raw;
  const double features[1] = {raw};
  return bias_correction_->predict_one(features);
}

std::string LutSurrogate::name() const {
  return bias_corrected() ? "LUT+BC" : "LUT";
}

void LutSurrogate::save(ArchiveWriter& archive) const {
  ESM_REQUIRE(fitted(), "cannot save an empty LUT surrogate");
  // Signatures are whitespace-free by construction, so they store directly
  // as archive string tokens; std::map iteration gives a stable key order.
  std::vector<std::string> keys;
  std::vector<double> values;
  keys.reserve(table_.size());
  values.reserve(table_.size());
  for (const auto& [key, value] : table_) {
    keys.push_back(key);
    values.push_back(value);
  }
  archive.put_strings("lut.keys", keys);
  archive.put_doubles("lut.values", values);
  archive.put_int("lut.bias_corrected", bias_corrected() ? 1 : 0);
  if (bias_corrected()) {
    archive.put_doubles("lut.bias.weights", bias_correction_->weights());
    archive.put_double("lut.bias.intercept", bias_correction_->intercept());
  }
}

}  // namespace esm
