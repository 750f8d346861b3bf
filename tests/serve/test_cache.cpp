#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "core/serialization.hpp"
#include "dvfs/combos.hpp"

namespace gppm::serve {
namespace {

PredictionKey key(std::uint64_t model_fp, std::uint64_t counters_fp,
                  sim::FrequencyPair pair = sim::kDefaultPair,
                  std::uint64_t family = 0) {
  return PredictionKey{model_fp, counters_fp, family, pair};
}

TEST(ServeCache, MissThenHit) {
  PredictionCache cache(16);
  double v = 0.0;
  EXPECT_FALSE(cache.lookup(key(1, 2), v));
  cache.insert(key(1, 2), 42.0);
  EXPECT_TRUE(cache.lookup(key(1, 2), v));
  EXPECT_EQ(v, 42.0);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ServeCache, KeyComponentsAllMatter) {
  PredictionCache cache(16);
  cache.insert(key(1, 2, sim::kDefaultPair), 1.0);
  double v = 0.0;
  EXPECT_FALSE(cache.lookup(key(9, 2, sim::kDefaultPair), v));
  EXPECT_FALSE(cache.lookup(key(1, 9, sim::kDefaultPair), v));
  EXPECT_FALSE(cache.lookup(
      key(1, 2, {sim::ClockLevel::Low, sim::ClockLevel::High}), v));
  EXPECT_TRUE(cache.lookup(key(1, 2, sim::kDefaultPair), v));
}

TEST(ServeCache, FamilySeparatesTenantEntries) {
  // Two tenants can serve bit-identical models (same fingerprints) over
  // the same phase — e.g. a tenant family bootstrapped from a copy of the
  // default pair.  The family id must keep their entries apart so a later
  // refit of one family can never be answered from the other's cache.
  PredictionCache cache(16);
  cache.insert(key(1, 2, sim::kDefaultPair, /*family=*/0), 10.0);
  double v = 0.0;
  EXPECT_FALSE(cache.lookup(key(1, 2, sim::kDefaultPair, /*family=*/7), v));
  cache.insert(key(1, 2, sim::kDefaultPair, /*family=*/7), 70.0);
  ASSERT_TRUE(cache.lookup(key(1, 2, sim::kDefaultPair, 0), v));
  EXPECT_EQ(v, 10.0);
  ASSERT_TRUE(cache.lookup(key(1, 2, sim::kDefaultPair, 7), v));
  EXPECT_EQ(v, 70.0);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ServeCache, LruEvictsOldestWithinShard) {
  // Single shard so the LRU order is global and deterministic.
  PredictionCache cache(2, /*shards=*/1);
  cache.insert(key(1, 1), 1.0);
  cache.insert(key(2, 2), 2.0);
  double v = 0.0;
  ASSERT_TRUE(cache.lookup(key(1, 1), v));  // refresh key 1
  cache.insert(key(3, 3), 3.0);             // evicts key 2 (LRU)
  EXPECT_TRUE(cache.lookup(key(1, 1), v));
  EXPECT_FALSE(cache.lookup(key(2, 2), v));
  EXPECT_TRUE(cache.lookup(key(3, 3), v));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ServeCache, InsertRefreshesExistingEntry) {
  PredictionCache cache(4, 1);
  cache.insert(key(1, 1), 1.0);
  cache.insert(key(1, 1), 7.0);
  double v = 0.0;
  ASSERT_TRUE(cache.lookup(key(1, 1), v));
  EXPECT_EQ(v, 7.0);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ServeCache, ZeroCapacityDisables) {
  PredictionCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(key(1, 1), 1.0);
  double v = 0.0;
  EXPECT_FALSE(cache.lookup(key(1, 1), v));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCache, ClearResetsEntriesAndStats) {
  PredictionCache cache(8);
  cache.insert(key(1, 1), 1.0);
  double v = 0.0;
  cache.lookup(key(1, 1), v);
  cache.clear();
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(ServeCache, CountersFingerprintSeparatesPhases) {
  profiler::ProfileResult a;
  a.run_time = Duration::seconds(1.0);
  a.counters.push_back({"c0", profiler::EventClass::Core, 10.0, 10.0});
  profiler::ProfileResult b = a;
  EXPECT_EQ(counters_fingerprint(a), counters_fingerprint(b));
  b.counters[0].total = 10.0000001;
  EXPECT_NE(counters_fingerprint(a), counters_fingerprint(b));
}

TEST(ServeCache, CountersFingerprintKeyedOnNameAndClass) {
  // Regression: the fingerprint once hashed only the numeric values, so two
  // profiles with identical readings under *different counter names* (or
  // event classes) collided — and the prediction cache served one workload's
  // cached prediction for the other.
  profiler::ProfileResult a;
  a.run_time = Duration::seconds(1.0);
  a.counters.push_back({"inst_executed", profiler::EventClass::Core, 10.0, 10.0});
  a.counters.push_back({"dram_reads", profiler::EventClass::Memory, 3.0, 3.0});

  profiler::ProfileResult renamed = a;
  renamed.counters[0].name = "inst_issued";  // same values, different counter
  EXPECT_NE(counters_fingerprint(a), counters_fingerprint(renamed));

  profiler::ProfileResult reclassed = a;
  reclassed.counters[0].klass = profiler::EventClass::Memory;
  EXPECT_NE(counters_fingerprint(a), counters_fingerprint(reclassed));

  // Same multiset of (name, value) attached to swapped counters must also
  // differ: identity stays glued to its own reading.
  profiler::ProfileResult swapped = a;
  std::swap(swapped.counters[0].name, swapped.counters[1].name);
  EXPECT_NE(counters_fingerprint(a), counters_fingerprint(swapped));

  profiler::ProfileResult same = a;
  EXPECT_EQ(counters_fingerprint(a), counters_fingerprint(same));
}

TEST(ServeCache, ModelFingerprintStableAcrossRoundTrip) {
  const core::Dataset ds = core::build_dataset(sim::GpuModel::GTX460);
  const core::UnifiedModel power =
      core::UnifiedModel::fit(ds, core::TargetKind::Power);
  const core::UnifiedModel perf =
      core::UnifiedModel::fit(ds, core::TargetKind::ExecTime);
  EXPECT_NE(core::model_fingerprint(power), core::model_fingerprint(perf));
  const core::UnifiedModel loaded =
      core::deserialize_model(core::serialize_model(power));
  EXPECT_EQ(core::model_fingerprint(power), core::model_fingerprint(loaded));
}

TEST(ServeCache, FingerprintAndPredictionIgnoreHowNamesAreStored) {
  // Profiler readings borrow the catalog's names; wire readings past the
  // catalog own theirs.  Cache keys and model evaluation must see only the
  // name bytes, never the handle.
  const core::Dataset ds = core::build_dataset(sim::GpuModel::GTX460);
  const core::UnifiedModel power =
      core::UnifiedModel::fit(ds, core::TargetKind::Power);
  const core::UnifiedModel perf =
      core::UnifiedModel::fit(ds, core::TargetKind::ExecTime);
  for (std::size_t s = 0; s < ds.samples.size(); s += 7) {
    const profiler::ProfileResult& borrowed = ds.samples[s].counters;
    profiler::ProfileResult owned = borrowed;
    for (profiler::CounterReading& r : owned.counters) {
      ASSERT_TRUE(r.name.is_borrowed()) << r.name;
      r.name = profiler::CounterName(r.name.str());
      ASSERT_FALSE(r.name.is_borrowed()) << r.name;
    }
    EXPECT_EQ(counters_fingerprint(borrowed), counters_fingerprint(owned))
        << "sample " << s;
    for (const sim::FrequencyPair pair : dvfs::configurable_pairs(ds.model)) {
      const double pb = power.predict(borrowed, pair);
      const double po = power.predict(owned, pair);
      const double tb = perf.predict(borrowed, pair);
      const double to = perf.predict(owned, pair);
      EXPECT_EQ(std::memcmp(&pb, &po, sizeof pb), 0) << "sample " << s;
      EXPECT_EQ(std::memcmp(&tb, &to, sizeof tb), 0) << "sample " << s;
    }
  }
}

TEST(ServeCache, ConcurrentMixedLoadKeepsCounts) {
  constexpr int kThreads = 4;
  constexpr int kOps = 5000;
  PredictionCache cache(256);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const auto k = key(static_cast<std::uint64_t>(t),
                           static_cast<std::uint64_t>(i % 97));
        double v = 0.0;
        if (!cache.lookup(k, v)) cache.insert(k, static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_GT(s.hits, 0u);
  EXPECT_LE(s.entries, 256u);
}

}  // namespace
}  // namespace gppm::serve
