// The benchmark's one adapter between its inputs and the serving
// vocabulary: every request is built by make_request and every answer is
// read by answer_record or computed by expected_record, so a change to
// serve::Request or serve::Response touches the benchmark here and nowhere
// else.
#include <cstring>

#include "core/optimizer.hpp"
#include "perfbench.hpp"

namespace perfbench {

serve::Request make_request(const Phase& phase, serve::RequestKind kind,
                            sim::FrequencyPair pair, double counter_scale) {
  serve::Request request;
  request.kind = kind;
  request.gpu = phase.gpu;
  request.counters = *phase.counters;
  request.pair = pair;
  if (counter_scale != 1.0) {
    for (gppm::profiler::CounterReading& reading : request.counters.counters) {
      reading.total *= counter_scale;
      reading.per_second *= counter_scale;
    }
  }
  return request;
}

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::uint64_t pair_code(sim::FrequencyPair pair) {
  return static_cast<std::uint64_t>(pair.core) * 3 +
         static_cast<std::uint64_t>(pair.mem);
}

}  // namespace

std::uint64_t answer_record(const serve::Response& response) {
  if (!response.ok()) return 0;
  std::uint64_t h = mix64(static_cast<std::uint64_t>(response.status) + 1);
  h = mix64(h ^ pair_code(response.pair));
  h = mix64(h ^ bits_of(response.power_watts));
  h = mix64(h ^ bits_of(response.time_seconds));
  h = mix64(h ^ bits_of(response.energy_joules));
  // Low byte: pair code + 1, so an Ok record is never 0.
  return (h & ~std::uint64_t{0xff}) | (pair_code(response.pair) + 1);
}

sim::FrequencyPair record_pair(std::uint64_t record) {
  const std::uint64_t code = (record & 0xff) - 1;
  return {static_cast<sim::ClockLevel>(code / 3),
          static_cast<sim::ClockLevel>(code % 3)};
}

std::uint64_t expected_record(const Models& models,
                              const serve::Request& request) {
  const std::size_t b = board_slot(request.gpu);
  const core::UnifiedModel& power = models.power[b];
  const core::UnifiedModel& perf = models.perf[b];
  serve::Response answer;
  answer.kind = request.kind;
  switch (request.kind) {
    case serve::RequestKind::Predict:
      answer.pair = request.pair;
      answer.power_watts = power.predict(request.counters, request.pair);
      answer.time_seconds = perf.predict(request.counters, request.pair);
      break;
    case serve::RequestKind::Optimize: {
      // predict_min_energy_pair's ranking (clamped predictions, first pair
      // of least energy), keeping the prediction of the pair it picks.
      const std::vector<core::PairPrediction> all =
          core::predict_all_pairs(power, perf, request.counters);
      const core::PairPrediction* best = &all.front();
      for (const core::PairPrediction& p : all) {
        if (p.predicted_energy_joules < best->predicted_energy_joules) {
          best = &p;
        }
      }
      answer.pair = best->pair;
      answer.power_watts = best->predicted_power_watts;
      answer.time_seconds = best->predicted_time_seconds;
      break;
    }
    case serve::RequestKind::Govern:
      throw std::logic_error("Govern answers depend on governor state");
  }
  answer.energy_joules = answer.power_watts * answer.time_seconds;
  return answer_record(answer);
}

}  // namespace perfbench
