// Sharded LRU cache for model predictions.
//
// DVFS phases repeat: a server replaying real traffic sees the same
// (workload phase, operating point) queries over and over, and a fitted
// linear model is a pure function of its inputs — so predictions are
// perfectly cacheable.  Entries are keyed on
//
//   (model fingerprint, counter-vector fingerprint, frequency pair)
//
// where the model fingerprint is core::model_fingerprint (stable across
// serialization round-trips) and the counter fingerprint hashes every
// reading's identity and bit patterns.  The cache is sharded by key hash
// with one mutex and one LRU list per shard, so concurrent workers rarely
// contend on the same lock; hit/miss/eviction counts aggregate across
// shards for the metrics report.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gpusim/arch.hpp"
#include "profiler/cuda_profiler.hpp"

namespace gppm::serve {

/// Fingerprint of a counter vector: a word-wise hash over the reading
/// count, the run time, and every reading's identity (name and event
/// class) and bit patterns (totals and rates).  Words feed four
/// independent 64-bit lanes with one multiply–xorshift each; names go 8
/// bytes per word.  Identity is part of the key: profiles from
/// different architecture catalogs can carry identical numerics under
/// different counter names, and excluding the names made such profiles
/// collide onto one cache entry.
std::uint64_t counters_fingerprint(const profiler::ProfileResult& counters);

/// Cache key for one prediction.  `family` is the model-family id the
/// prediction was served under (the tenant id in the multi-tenant server;
/// 0 for the shared default family).  Model fingerprints usually separate
/// families already, but the id is part of the key so two families that
/// happen to carry bit-identical models — e.g. a tenant bootstrapped from
/// a copy of the default pair and refit later — can never alias each
/// other's entries across the swap.
struct PredictionKey {
  std::uint64_t model_fp = 0;
  std::uint64_t counters_fp = 0;
  std::uint64_t family = 0;
  sim::FrequencyPair pair;

  bool operator==(const PredictionKey&) const = default;
  std::uint64_t hash() const;
};

/// Aggregate cache statistics (summed over shards).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Thread-safe sharded LRU mapping PredictionKey -> predicted value.
class PredictionCache {
 public:
  /// `capacity` is the total entry budget, split evenly across shards.
  /// A capacity of zero disables the cache (every lookup misses, inserts
  /// are dropped) — the serve bench uses this to measure the uncached path.
  explicit PredictionCache(std::size_t capacity, std::size_t shards = 16);

  /// Look up a prediction; true (and fills `value`) on hit.  A hit
  /// refreshes the entry's LRU position.
  bool lookup(const PredictionKey& key, double& value);

  /// Insert or refresh an entry, evicting the shard's least recently used
  /// entry when that shard is at capacity.
  void insert(const PredictionKey& key, double value);

  CacheStats stats() const;
  void clear();

  std::size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }

 private:
  struct Entry {
    PredictionKey key;
    double value = 0.0;
  };
  struct KeyHash {
    std::uint64_t operator()(const PredictionKey& k) const { return k.hash(); }
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<PredictionKey, std::list<Entry>::iterator, KeyHash>
        index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const PredictionKey& key);

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace gppm::serve
