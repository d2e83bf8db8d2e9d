// Sharded LRU prediction cache. The server keys it with packed canonical
// architecture keys (serve::arch_cache_key: the model generation plus one
// mixed-radix code per unit, short enough for std::string's inline
// buffer, so a lookup allocates nothing); any string works as a key.
// Values are the exact predicted doubles, so a cache hit returns the same
// bits the miss path computed. Sharding keeps lock contention bounded when
// several threads (in-process callers beside the reactor) look up
// concurrently: each key hashes to one shard with its own mutex and LRU
// list. A cache is never emptied in place: hot reload gives every
// reloaded model a fresh one (serve/fleet.hpp), so no stale value can
// outlive its model.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace esm::serve {

/// Thread-safe LRU map from canonical arch keys to predicted latencies.
/// A capacity of 0 disables caching entirely (every get misses, put is a
/// no-op). The total capacity is split evenly over the shards (each shard
/// gets at least one slot), so the effective capacity is
/// shards * ceil-ish(capacity / shards) and eviction is per-shard LRU.
class PredictionCache {
 public:
  explicit PredictionCache(std::size_t capacity, std::size_t shards = 8);

  /// Returns the cached value and refreshes its recency; nullopt on miss.
  std::optional<double> get(const std::string& key);

  /// Inserts or refreshes `key`, evicting the shard's least-recently-used
  /// entry when the shard is full.
  void put(const std::string& key, double value);

  /// Current number of cached entries over all shards.
  std::size_t size() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used; pairs of (key, value).
    std::list<std::pair<std::string, double>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, double>>::iterator>
        index;
  };

  Shard& shard_for(const std::string& key);

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace esm::serve
