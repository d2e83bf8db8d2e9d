#include "serve/cache.hpp"

#include <functional>

#include "common/error.hpp"

namespace esm::serve {

PredictionCache::PredictionCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  ESM_REQUIRE(shards > 0, "prediction cache needs at least one shard");
  if (capacity_ == 0) return;  // disabled: no shards, get/put short-circuit
  const std::size_t n = std::min(shards, capacity_);
  per_shard_capacity_ = (capacity_ + n - 1) / n;
  shards_ = std::vector<Shard>(n);
}

PredictionCache::Shard& PredictionCache::shard_for(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::optional<double> PredictionCache::get(const std::string& key) {
  if (capacity_ == 0) return std::nullopt;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void PredictionCache::put(const std::string& key, double value) {
  if (capacity_ == 0) return;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, value);
  shard.index.emplace(key, shard.lru.begin());
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
  }
}

std::size_t PredictionCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace esm::serve
