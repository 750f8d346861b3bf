#include "core/unified_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "profiler/counters.hpp"

namespace gppm::core {

UnifiedModel UnifiedModel::fit(const Dataset& dataset, TargetKind target,
                               const ModelOptions& options,
                               const sim::FrequencyPair* pair_filter) {
  return ModelFamily::fit(dataset, target, options, pair_filter).full();
}

ModelFamily ModelFamily::fit(const Dataset& dataset, TargetKind target,
                             const ModelOptions& options,
                             const sim::FrequencyPair* pair_filter) {
  RegressionTable table =
      build_table(dataset, target, pair_filter, options.scaling,
                  options.include_baseline_terms);

  if (!options.candidate_features.empty()) {
    // Zero out non-candidate columns; selection skips constant columns, so
    // this restricts the search without perturbing the engine.
    for (std::size_t c = 0; c < table.feature_names.size(); ++c) {
      const bool allowed =
          std::find(options.candidate_features.begin(),
                    options.candidate_features.end(),
                    table.feature_names[c]) != options.candidate_features.end();
      if (allowed) continue;
      for (std::size_t r = 0; r < table.features.rows(); ++r) {
        table.features(r, c) = 0.0;
      }
    }
  }

  stats::SelectionOptions sel;
  sel.max_variables = options.max_variables;
  sel.engine = options.engine;
  sel.parallel = options.parallel;
  const stats::SelectionResult result =
      stats::forward_select(table.features, table.target, sel);

  const auto& catalog =
      profiler::counter_catalog(sim::device_spec(dataset.model).architecture);
  const auto& readings = dataset.samples.front().counters.counters;
  // Samples carry at least the full catalog; anything past it must be a
  // mix-level pseudo-counter (gppm::mix appends those to member profiles).
  GPPM_CHECK(readings.size() >= catalog.size(),
             "sample has fewer counters than the board catalog");
  for (std::size_t c = catalog.size(); c < readings.size(); ++c) {
    GPPM_CHECK(is_mix_feature(readings[c].name),
               "unexpected extra counter past the catalog: " +
                   readings[c].name.str());
  }
  GPPM_CHECK(readings.size() + (options.include_baseline_terms ? 2u : 0u) ==
                 table.feature_names.size(),
             "catalog/feature mismatch");

  ModelFamily family;
  family.prefixes_.reserve(result.selected.size());
  for (std::size_t k = 1; k <= result.selected.size(); ++k) {
    const stats::OlsFit& prefix = result.prefix_fits[k - 1];
    UnifiedModel model;
    model.target_ = target;
    model.scaling_ = options.scaling;
    model.gpu_ = dataset.model;
    model.intercept_ = prefix.intercept;
    model.adjusted_r2_ = prefix.adjusted_r_squared;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t col = result.selected[i];
      SelectedVariable var;
      var.counter = table.feature_names[col];
      // Columns map: catalog counters first, then any mix pseudo-counters
      // (klass carried on the reading itself), then the two baseline
      // pseudo-features: core first, mem second.
      var.klass = col < catalog.size()
                      ? catalog[col].klass
                      : (col < readings.size()
                             ? readings[col].klass
                             : (col == readings.size()
                                    ? profiler::EventClass::Core
                                    : profiler::EventClass::Memory));
      var.coefficient = prefix.coefficients[i];
      var.cumulative_adjusted_r2 = result.r2_trace[i];
      model.variables_.push_back(std::move(var));
      model.counter_indices_.push_back(col);
    }
    family.prefixes_.push_back(std::move(model));
  }
  return family;
}

const UnifiedModel& ModelFamily::at(std::size_t k) const {
  GPPM_CHECK(k >= 1, "prefix size must be >= 1");
  GPPM_CHECK(!prefixes_.empty(), "empty model family");
  const std::size_t idx = std::min(k, prefixes_.size()) - 1;
  return prefixes_[idx];
}

UnifiedModel::Parts UnifiedModel::parts() const {
  Parts p;
  p.target = target_;
  p.scaling = scaling_;
  p.gpu = gpu_;
  p.intercept = intercept_;
  p.adjusted_r2 = adjusted_r2_;
  p.variables = variables_;
  p.counter_indices = counter_indices_;
  return p;
}

UnifiedModel UnifiedModel::from_parts(Parts parts) {
  GPPM_CHECK(parts.variables.size() == parts.counter_indices.size(),
             "variables/indices size mismatch");
  const auto& catalog =
      profiler::counter_catalog(sim::device_spec(parts.gpu).architecture);
  for (std::size_t i = 0; i < parts.variables.size(); ++i) {
    const std::size_t idx = parts.counter_indices[i];
    // Catalog counters must match by name; indices past the catalog are
    // either mix pseudo-counters (validated by prefix — their position
    // depends on how many the fitting profile carried) or the two baseline
    // pseudo-features.
    if (idx < catalog.size()) {
      GPPM_CHECK(catalog[idx].name == parts.variables[i].counter,
                 "counter/index mismatch: " + parts.variables[i].counter);
    } else {
      const std::string& name = parts.variables[i].counter;
      GPPM_CHECK(is_mix_feature(name) || name == kBaselineCoreFeature ||
                     name == kBaselineMemFeature,
                 "feature index past catalog with unrecognized name: " + name);
    }
  }
  UnifiedModel model;
  model.target_ = parts.target;
  model.scaling_ = parts.scaling;
  model.gpu_ = parts.gpu;
  model.intercept_ = parts.intercept;
  model.adjusted_r2_ = parts.adjusted_r2;
  model.variables_ = std::move(parts.variables);
  model.counter_indices_ = std::move(parts.counter_indices);
  return model;
}

double UnifiedModel::predict(const profiler::ProfileResult& counters,
                             sim::FrequencyPair pair) const {
  // Every variable reads its reading in place; the baseline
  // pseudo-readings are built once per process for that.
  static const profiler::CounterReading kBaselineCore =
      baseline_reading(profiler::EventClass::Core);
  static const profiler::CounterReading kBaselineMem =
      baseline_reading(profiler::EventClass::Memory);
  const sim::DeviceSpec& spec = sim::device_spec(gpu_);
  double acc = intercept_;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    const std::size_t idx = counter_indices_[i];
    const SelectedVariable& variable = variables_[i];
    const profiler::CounterReading* reading = nullptr;
    if (idx < counters.counters.size()) {
      reading = &counters.counters[idx];
      GPPM_CHECK(reading->name == variable.counter,
                 "counter order mismatch: expected " + variable.counter);
    } else {
      // A mix-term model cannot be driven by a profile that lacks the mix
      // pseudo-counters — that would silently substitute a unit baseline.
      GPPM_CHECK(!is_mix_feature(variable.counter),
                 "profile lacks mix pseudo-counter " + variable.counter);
      // Baseline pseudo-feature (extension): unit-rate reading.
      reading = variable.klass == profiler::EventClass::Core ? &kBaselineCore
                                                              : &kBaselineMem;
    }
    acc += variable.coefficient *
           feature_value(*reading, pair, spec, target_, scaling_);
  }
  return acc;
}

}  // namespace gppm::core
