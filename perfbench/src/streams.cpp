// Seeded request streams.  Request i of a stream is derived from
// (seed, stream, i) alone, so the same seed replays byte-identical traffic
// and nothing is generated ahead of time: the load generator holds no
// request it is not about to send.
#include <cmath>

#include "dvfs/combos.hpp"
#include "perfbench.hpp"

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t draw_bits(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t index, std::uint64_t field) {
  return mix64(mix64(mix64(mix64(seed) ^ stream) ^ index) ^ field);
}

double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

Corpus make_corpus(const std::array<core::Dataset, 4>& datasets) {
  Corpus corpus;
  for (const core::Dataset& dataset : datasets) {
    for (const core::Sample& sample : dataset.samples) {
      corpus.phases.push_back({dataset.model, &sample.counters});
    }
    corpus.pairs[board_slot(dataset.model)] =
        gppm::dvfs::configurable_pairs(dataset.model);
  }
  return corpus;
}

namespace {
enum Field : std::uint64_t { kPhase = 1, kKind, kPair, kScale };
}  // namespace

serve::RequestKind RequestStream::kind(std::uint64_t index) const {
  if (traffic_ == Traffic::Unique) return serve::RequestKind::Predict;
  const double u = unit_interval(draw_bits(seed_, stream_, index, kKind));
  if (u < 0.6) return serve::RequestKind::Predict;
  if (u < 0.9) return serve::RequestKind::Optimize;
  return serve::RequestKind::Govern;
}

serve::Request RequestStream::request(std::uint64_t index) const {
  const Phase& phase =
      corpus_->phases[draw_bits(seed_, stream_, index, kPhase) %
                      corpus_->phases.size()];
  const std::vector<sim::FrequencyPair>& pairs =
      corpus_->pairs[board_slot(phase.gpu)];
  const sim::FrequencyPair pair =
      pairs[draw_bits(seed_, stream_, index, kPair) % pairs.size()];
  // Unique traffic: a factor in [1, 1.01) drawn from 53 random bits, so no
  // two requests share a counter fingerprint.
  const double scale =
      traffic_ == Traffic::Unique
          ? 1.0 + 0.01 * unit_interval(draw_bits(seed_, stream_, index, kScale))
          : 1.0;
  return make_request(phase, kind(index), pair, scale);
}

}  // namespace perfbench
