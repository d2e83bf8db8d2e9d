#include "serve/metrics.hpp"

#include <cmath>
#include <sstream>

#include "common/strings.hpp"

namespace esm::serve {
namespace {

std::size_t bucket_index(double us) {
  if (!(us >= 1.0)) return 0;  // [0, 1) us and any NaN/negative input
  const std::size_t i =
      1 + static_cast<std::size_t>(std::floor(std::log2(us)));
  return std::min(i, LatencyHistogram::kBuckets - 1);
}

double bucket_upper_bound_us(std::size_t index) {
  if (index == 0) return 1.0;
  return std::ldexp(1.0, static_cast<int>(index));  // 2^index
}

}  // namespace

void LatencyHistogram::record_us(double us) {
  buckets_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::percentile_us(double p) const {
  std::array<std::uint64_t, kBuckets> snap{};
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap[i];
  }
  if (total == 0) return 0.0;
  // Rank of the percentile sample, 1-based, clamped into [1, total].
  const double raw_rank = std::ceil(p / 100.0 * static_cast<double>(total));
  const std::uint64_t rank = static_cast<std::uint64_t>(
      std::min(std::max(raw_rank, 1.0), static_cast<double>(total)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += snap[i];
    if (cumulative >= rank) return bucket_upper_bound_us(i);
  }
  return bucket_upper_bound_us(kBuckets - 1);
}

ModelCounters ModelMetrics::snapshot() const {
  ModelCounters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.errors = errors_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.expired = expired_.load(std::memory_order_relaxed);
  c.archs = archs_.load(std::memory_order_relaxed);
  c.arch_hits = arch_hits_.load(std::memory_order_relaxed);
  c.arch_misses = arch_misses_.load(std::memory_order_relaxed);
  return c;
}

ServerMetrics::ServerMetrics() : start_(std::chrono::steady_clock::now()) {
  // Eagerly create and list the routing-failure section so every
  // predict-line path has a non-null section before the first request
  // arrives.
  unrouted_ = model_section(kUnroutedSection);
  unrouted_->mark_routed();
}

ModelMetrics* ServerMetrics::model_section(const std::string& name) {
  std::lock_guard<std::mutex> lock(sections_mutex_);
  auto& slot = sections_[name];
  if (!slot) slot = std::make_unique<ModelMetrics>();
  return slot.get();
}

void ServerMetrics::count_predict_line(bool all_from_cache,
                                       ModelMetrics* model) {
  model->requests_.fetch_add(1, std::memory_order_relaxed);
  (all_from_cache ? model->hits_ : model->misses_)
      .fetch_add(1, std::memory_order_relaxed);
}

void ServerMetrics::count_error(ModelMetrics* section, ErrorCode code) {
  if (section == nullptr) {
    control_requests_.fetch_add(1, std::memory_order_relaxed);
    control_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  section->requests_.fetch_add(1, std::memory_order_relaxed);
  section->errors_.fetch_add(1, std::memory_order_relaxed);
  if (code == ErrorCode::overloaded) {
    section->shed_.fetch_add(1, std::memory_order_relaxed);
  } else if (code == ErrorCode::deadline_exceeded) {
    section->expired_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServerMetrics::count_arch_hits(std::uint64_t hits, ModelMetrics* model) {
  model->archs_.fetch_add(hits, std::memory_order_relaxed);
  model->arch_hits_.fetch_add(hits, std::memory_order_relaxed);
}

void ServerMetrics::count_control_line() {
  control_requests_.fetch_add(1, std::memory_order_relaxed);
}

void ServerMetrics::count_batch(std::size_t n, ModelMetrics* model) {
  model->archs_.fetch_add(n, std::memory_order_relaxed);
  model->arch_misses_.fetch_add(n, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_archs_.fetch_add(n, std::memory_order_relaxed);
  std::uint64_t seen = max_batch_.load(std::memory_order_relaxed);
  while (n > seen &&
         !max_batch_.compare_exchange_weak(seen, n,
                                           std::memory_order_relaxed)) {
  }
}

void ServerMetrics::count_reload() {
  reloads_.fetch_add(1, std::memory_order_relaxed);
}

void ServerMetrics::count_search(std::uint64_t evaluations) {
  searches_.fetch_add(1, std::memory_order_relaxed);
  search_evals_.fetch_add(evaluations, std::memory_order_relaxed);
}

void ServerMetrics::set_degraded(bool degraded) {
  if (degraded_.exchange(degraded, std::memory_order_relaxed) != degraded &&
      degraded) {
    degraded_entries_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServerMetrics::record_latency_us(double us) { latency_.record_us(us); }

void ServerMetrics::set_artifact(const std::string& path,
                                 const std::string& crc32_hex,
                                 const std::string& kind,
                                 const std::string& encoder,
                                 const std::string& space) {
  std::lock_guard<std::mutex> lock(identity_mutex_);
  artifact_ = path;
  artifact_crc32_ = crc32_hex;
  kind_ = kind;
  encoder_ = encoder;
  space_ = space;
}

MetricsSnapshot ServerMetrics::snapshot() const {
  MetricsSnapshot snap;
  snap.degraded = degraded_.load(std::memory_order_relaxed) ? 1 : 0;
  snap.degraded_entries =
      degraded_entries_.load(std::memory_order_relaxed);
  snap.control_requests = control_requests_.load(std::memory_order_relaxed);
  snap.control_errors = control_errors_.load(std::memory_order_relaxed);
  snap.batches = batches_.load(std::memory_order_relaxed);
  snap.batched_archs = batched_archs_.load(std::memory_order_relaxed);
  snap.max_batch = max_batch_.load(std::memory_order_relaxed);
  snap.reloads = reloads_.load(std::memory_order_relaxed);
  snap.searches = searches_.load(std::memory_order_relaxed);
  snap.search_evals = search_evals_.load(std::memory_order_relaxed);
  snap.p50_us = latency_.percentile_us(50.0);
  snap.p95_us = latency_.percentile_us(95.0);
  snap.p99_us = latency_.percentile_us(99.0);
  snap.uptime_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  {
    std::lock_guard<std::mutex> lock(identity_mutex_);
    snap.artifact = artifact_;
    snap.artifact_crc32 = artifact_crc32_;
    snap.kind = kind_;
    snap.encoder = encoder_;
    snap.space = space_;
  }
  {
    std::lock_guard<std::mutex> lock(sections_mutex_);
    snap.per_model.reserve(sections_.size());
    // The fleet-wide totals are the sums over every section, listed or
    // not, so they equal the per-model sums by construction.
    for (const auto& [name, section] : sections_) {
      const ModelCounters c = section->snapshot();
      snap.requests += c.requests;
      snap.hits += c.hits;
      snap.misses += c.misses;
      snap.errors += c.errors;
      snap.shed += c.shed;
      snap.expired += c.expired;
      snap.archs += c.archs;
      snap.arch_hits += c.arch_hits;
      snap.arch_misses += c.arch_misses;
      if (section->routed_.load(std::memory_order_relaxed)) {
        snap.per_model.emplace_back(name, c);
      }
    }
  }
  return snap;
}

std::string ServerMetrics::stats_payload(const MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "requests=" << snap.requests << " hits=" << snap.hits
     << " misses=" << snap.misses << " errors=" << snap.errors
     << " shed=" << snap.shed << " expired=" << snap.expired
     << " degraded=" << snap.degraded
     << " degraded_entries=" << snap.degraded_entries
     << " archs=" << snap.archs << " arch_hits=" << snap.arch_hits
     << " arch_misses=" << snap.arch_misses
     << " control_requests=" << snap.control_requests
     << " control_errors=" << snap.control_errors
     << " batches=" << snap.batches
     << " batched_archs=" << snap.batched_archs
     << " max_batch=" << snap.max_batch << " reloads=" << snap.reloads
     << " searches=" << snap.searches
     << " search_evals=" << snap.search_evals
     << " p50_us=" << snap.p50_us << " p95_us=" << snap.p95_us
     << " p99_us=" << snap.p99_us
     << " uptime_s=" << format_double(snap.uptime_s, 3)
     << " kind=" << snap.kind << " artifact_crc32=" << snap.artifact_crc32
     << " artifact=" << snap.artifact;
  for (const auto& [name, c] : snap.per_model) {
    os << " model." << name << ".requests=" << c.requests << " model." << name
       << ".hits=" << c.hits << " model." << name << ".misses=" << c.misses
       << " model." << name << ".errors=" << c.errors << " model." << name
       << ".shed=" << c.shed << " model." << name << ".expired=" << c.expired
       << " model." << name << ".archs=" << c.archs << " model." << name
       << ".arch_hits=" << c.arch_hits << " model." << name
       << ".arch_misses=" << c.arch_misses;
  }
  return os.str();
}

std::string ServerMetrics::summary_line(const MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "[esm_serve] up " << format_double(snap.uptime_s, 1) << "s  "
     << snap.requests << " req (" << snap.hits << " hit / " << snap.misses
     << " miss / " << snap.errors << " err)  p50/p95/p99 " << snap.p50_us
     << "/" << snap.p95_us << "/" << snap.p99_us << " us  serving "
     << snap.kind << " from " << snap.artifact << " (reloads "
     << snap.reloads << ")";
  return os.str();
}

}  // namespace esm::serve
