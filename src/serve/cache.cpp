#include "serve/cache.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace gppm::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

constexpr std::uint64_t kLaneMul = 0x9e3779b97f4a7c15ull;

/// One multiply–xorshift: fold word `v` into lane state `h`.
inline std::uint64_t lane_step(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * kLaneMul;
  return h ^ (h >> 32);
}

/// Eight bytes of a name in host byte order (the fingerprint never leaves
/// the process).
inline std::uint64_t name_word(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace

std::uint64_t counters_fingerprint(const profiler::ProfileResult& counters) {
  // Four independent lanes, so a reading's words mix in parallel instead
  // of along one serial chain: lanes a and d take a name's words in
  // turn, lane b its length and class and then its total, lane c its
  // per-second rate.
  std::uint64_t a = 0x243f6a8885a308d3ull;
  std::uint64_t b = 0x13198a2e03707344ull;
  std::uint64_t c = 0xa4093822299f31d0ull;
  std::uint64_t d = 0x082efa98ec4e6c89ull;
  a = lane_step(a, counters.counters.size());
  c = lane_step(c, double_bits(counters.run_time.as_seconds()));
  for (const profiler::CounterReading& r : counters.counters) {
    // Counter identity matters: two profiles with identical numerics but
    // different names/classes (e.g. different architecture catalogs) must
    // not collide, or the cache returns a wrong prediction.
    const char* p = r.name.data();
    const std::size_t n = r.name.size();
    b = lane_step(b, static_cast<std::uint64_t>(n) << 8 |
                         static_cast<std::uint64_t>(r.klass));
    if (n < 8) {
      std::uint64_t w = 0;
      for (std::size_t i = 0; i < n; ++i) {
        w |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
      }
      a = lane_step(a, w);
    } else {
      // Whole words, then the name's last 8 bytes (overlapping the word
      // before when the length is not a multiple of 8; the length is
      // hashed, so the overlap is unambiguous).
      std::size_t at = 0;
      for (; at + 16 <= n; at += 16) {
        a = lane_step(a, name_word(p + at));
        d = lane_step(d, name_word(p + at + 8));
      }
      if (n - at > 8) {
        a = lane_step(a, name_word(p + at));
        d = lane_step(d, name_word(p + n - 8));
      } else if (n > at) {
        a = lane_step(a, name_word(p + n - 8));
      }
    }
    b = lane_step(b, double_bits(r.total));
    c = lane_step(c, double_bits(r.per_second));
  }
  std::uint64_t h = lane_step(lane_step(lane_step(a, b), c), d);
  // splitmix64's finalizer: full avalanche of the folded lanes.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

std::uint64_t PredictionKey::hash() const {
  std::uint64_t h = kFnvOffset;
  mix(h, model_fp);
  mix(h, counters_fp);
  mix(h, family);
  mix(h, static_cast<std::uint64_t>(pair.core) * 4 +
             static_cast<std::uint64_t>(pair.mem));
  return h;
}

PredictionCache::PredictionCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  GPPM_CHECK(shards > 0, "cache must have at least one shard");
  if (capacity_ == 0) return;  // disabled: no shards needed
  if (shards > capacity_) shards = capacity_;
  per_shard_capacity_ = (capacity_ + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PredictionCache::Shard& PredictionCache::shard_for(const PredictionKey& key) {
  // Re-scramble with splitmix64 so shard choice and bucket choice inside a
  // shard use decorrelated bits of the key hash.
  std::uint64_t h = key.hash();
  return *shards_[splitmix64(h) % shards_.size()];
}

bool PredictionCache::lookup(const PredictionKey& key, double& value) {
  if (!enabled()) return false;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  value = it->second->value;
  return true;
}

void PredictionCache::insert(const PredictionKey& key, double value) {
  if (!enabled()) return;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Entry{key, value});
  shard.index.emplace(key, shard.lru.begin());
}

CacheStats PredictionCache::stats() const {
  CacheStats s;
  s.capacity = capacity_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.entries += shard->lru.size();
  }
  return s;
}

void PredictionCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
    shard->hits = shard->misses = shard->evictions = 0;
  }
}

}  // namespace gppm::serve
