#include "surrogate/flops_proxy.hpp"

#include "common/error.hpp"
#include "linalg/matrix.hpp"
#include "ml/linreg.hpp"

namespace esm {

FlopsProxy::FlopsProxy(SupernetSpec spec) : spec_(std::move(spec)) {}

double FlopsProxy::gflops(const ArchConfig& arch) const {
  return graph_flops(spec_, arch) / 1e9;
}

void FlopsProxy::fit(std::span<const ArchConfig> archs,
                     std::span<const double> measured_ms) {
  ESM_REQUIRE(archs.size() == measured_ms.size(), "FlopsProxy data mismatch");
  ESM_REQUIRE(archs.size() >= 2, "FlopsProxy needs >= 2 samples");
  Matrix x(archs.size(), 1);
  for (std::size_t i = 0; i < archs.size(); ++i) x(i, 0) = gflops(archs[i]);
  LinearRegression reg;
  reg.fit(x, measured_ms);
  scale_ = reg.weights().front();
  offset_ = reg.intercept();
}

double FlopsProxy::predict_ms(const ArchConfig& arch) const {
  return scale_ * gflops(arch) + offset_;
}

}  // namespace esm
