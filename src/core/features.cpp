#include "core/features.hpp"

#include "common/error.hpp"

namespace gppm::core {

std::string to_string(TargetKind t) {
  return t == TargetKind::Power ? "power" : "exectime";
}

std::string to_string(FeatureScaling s) {
  return s == FeatureScaling::FrequencyOnly ? "f" : "V^2*f";
}

double feature_value(const profiler::CounterReading& reading,
                     sim::FrequencyPair pair, const sim::DeviceSpec& spec,
                     TargetKind target, FeatureScaling scaling) {
  const bool is_core = reading.klass == profiler::EventClass::Core;
  const sim::ClockDomainSpec& domain =
      is_core ? spec.core_clock : spec.mem_clock;
  const sim::ClockLevel level = is_core ? pair.core : pair.mem;
  const double freq_ghz = domain.at(level).frequency.as_ghz();
  if (target == TargetKind::Power) {
    // Eq. 1: per-second event rate x frequency — optionally x V^2 (the
    // voltage-aware extension; see FeatureScaling).
    const double vsq = scaling == FeatureScaling::VoltageSquaredFrequency
                           ? domain.voltage_sq_ratio(level)
                           : 1.0;
    return reading.per_second * freq_ghz * vsq;
  }
  // Eq. 2: event total / frequency.  Voltage does not change latency.
  return reading.total / freq_ghz;
}

bool is_mix_feature(const std::string& name) {
  return name.rfind(kMixFeaturePrefix, 0) == 0;
}

profiler::CounterReading baseline_reading(profiler::EventClass klass) {
  // Process-lifetime strings, so every baseline reading borrows its name.
  static const std::string& core_name = *new std::string(kBaselineCoreFeature);
  static const std::string& mem_name = *new std::string(kBaselineMemFeature);
  profiler::CounterReading r;
  r.name = profiler::CounterName::borrow(
      klass == profiler::EventClass::Core ? core_name : mem_name);
  r.klass = klass;
  r.total = 1.0;
  r.per_second = 1.0;
  return r;
}

RegressionTable build_table(const Dataset& dataset, TargetKind target,
                            const sim::FrequencyPair* pair_filter,
                            FeatureScaling scaling,
                            bool include_baseline_terms) {
  GPPM_CHECK(!dataset.samples.empty(), "empty dataset");
  const sim::DeviceSpec& spec = sim::device_spec(dataset.model);
  const std::size_t n_counters = dataset.samples.front().counters.counters.size();
  GPPM_CHECK(n_counters > 0, "sample without counters");
  const std::size_t n_features =
      n_counters + (include_baseline_terms ? 2 : 0);

  // Count rows first.
  std::size_t n_rows = 0;
  for (const Sample& s : dataset.samples) {
    for (const Measurement& m : s.runs) {
      if (pair_filter && !(m.pair == *pair_filter)) continue;
      ++n_rows;
      (void)m;
    }
  }
  GPPM_CHECK(n_rows > 0, "no rows after pair filter");

  RegressionTable table;
  table.features = linalg::Matrix(n_rows, n_features);
  table.target.resize(n_rows);
  table.rows.reserve(n_rows);
  table.feature_names.reserve(n_features);
  for (const profiler::CounterReading& r :
       dataset.samples.front().counters.counters) {
    table.feature_names.push_back(r.name);
  }
  if (include_baseline_terms) {
    table.feature_names.push_back(kBaselineCoreFeature);
    table.feature_names.push_back(kBaselineMemFeature);
  }

  std::size_t row = 0;
  for (std::size_t si = 0; si < dataset.samples.size(); ++si) {
    const Sample& s = dataset.samples[si];
    GPPM_CHECK(s.counters.counters.size() == n_counters,
               "inconsistent counter count across samples");
    for (const Measurement& m : s.runs) {
      if (pair_filter && !(m.pair == *pair_filter)) continue;
      for (std::size_t c = 0; c < n_counters; ++c) {
        table.features(row, c) =
            feature_value(s.counters.counters[c], m.pair, spec, target,
                          scaling);
      }
      if (include_baseline_terms) {
        table.features(row, n_counters) =
            feature_value(baseline_reading(profiler::EventClass::Core),
                          m.pair, spec, target, scaling);
        table.features(row, n_counters + 1) =
            feature_value(baseline_reading(profiler::EventClass::Memory),
                          m.pair, spec, target, scaling);
      }
      table.target[row] = target == TargetKind::Power
                              ? m.avg_power.as_watts()
                              : m.exec_time.as_seconds();
      table.rows.push_back({si, m.pair});
      ++row;
    }
  }
  GPPM_ASSERT(row == n_rows);
  return table;
}

}  // namespace gppm::core
