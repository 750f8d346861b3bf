#include "mix/model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace gppm::mix {

profiler::ProfileResult augment_profile(const profiler::ProfileResult& base,
                                        double bw_overcommit,
                                        double sm_share) {
  GPPM_CHECK(bw_overcommit >= 0.0, "negative bandwidth overcommit");
  GPPM_CHECK(sm_share > 0.0 && sm_share <= 1.0, "sm_share must be in (0, 1]");
  const double run_seconds = base.run_time.as_seconds();
  GPPM_CHECK(run_seconds > 0.0, "profile with zero run time");
  for (const profiler::CounterReading& r : base.counters) {
    GPPM_CHECK(!core::is_mix_feature(r.name),
               "profile already carries mix pseudo-counters");
  }

  // Both pseudo-counters use the profiled run time as the interaction base:
  // the extra time contention adds is proportional to the workload's own
  // duration, and the run time is the best counter-space proxy for it (any
  // single counter is a weaker correlate of time than time itself).  The
  // Eq. 2 feature of `total = scalar * T` is `scalar * T / f` — exactly the
  // shape of the extra contended seconds, with the H-frequency constant
  // folded into the fitted coefficient.  The Eq. 1 (per-second) side
  // reduces to the raw mix scalar, a clean activity-independent term for
  // the power family.
  profiler::ProfileResult out = base;
  profiler::CounterReading bw;
  bw.name = kMixBwPressureFeature;
  bw.klass = profiler::EventClass::Memory;
  bw.total = bw_overcommit * run_seconds;
  bw.per_second = bw_overcommit;
  out.counters.push_back(std::move(bw));

  const double share_scalar = 1.0 / sm_share - 1.0;
  profiler::CounterReading share;
  share.name = kMixSmShareFeature;
  share.klass = profiler::EventClass::Core;
  share.total = share_scalar * run_seconds;
  share.per_second = share_scalar;
  out.counters.push_back(std::move(share));

  // Interacted copies (catalog order, so every augmented profile lays the
  // pseudo-counters out identically): the SM-partition cut stretches the
  // member's compute work, so its scalar interacts with core-event
  // counters; bandwidth overcommit stretches memory work, so it interacts
  // with memory-event counters.
  for (const profiler::CounterReading& r : base.counters) {
    if (r.klass == profiler::EventClass::Core) {
      profiler::CounterReading sx = r;
      sx.name = std::string(kMixShareInteractionPrefix) + r.name.str();
      sx.total = share_scalar * r.total;
      sx.per_second = share_scalar * r.per_second;
      out.counters.push_back(std::move(sx));
    } else {
      profiler::CounterReading bx = r;
      bx.name = std::string(kMixBwInteractionPrefix) + r.name.str();
      bx.total = bw_overcommit * r.total;
      bx.per_second = bw_overcommit * r.per_second;
      out.counters.push_back(std::move(bx));
    }
  }
  return out;
}

MixScalars mix_scalars(const profiler::ProfileResult& augmented) {
  MixScalars s;
  bool have_bw = false;
  bool have_share = false;
  for (const profiler::CounterReading& r : augmented.counters) {
    if (r.name == kMixBwPressureFeature) {
      s.bw_overcommit = r.per_second;
      have_bw = true;
    } else if (r.name == kMixSmShareFeature) {
      s.share_scalar = r.per_second;
      have_share = true;
    }
  }
  GPPM_CHECK(have_bw && have_share,
             "profile lacks the mix pseudo-counters (augment_profile)");
  return s;
}

namespace {

/// The two mix candidate bases offered to hyperparameter selection.  Both
/// start from the solo family's proven counters plus the SM-share terms
/// (the dominant interference channel on this suite); the second adds the
/// bandwidth terms.  Bandwidth overcommit binds rarely, which makes its
/// terms high-value when the corpus exercises them and pure leverage
/// noise when it does not — so whether they enter at all is decided on
/// held-out validation slices, like the prefix length.
std::vector<core::ModelOptions> candidate_sets(
    const core::ModelFamily& solo, const core::ModelOptions& base) {
  std::vector<core::ModelOptions> sets(2, base);
  for (int v = 0; v < 2; ++v) {
    for (const core::SelectedVariable& var : solo.full().variables()) {
      sets[v].candidate_features.push_back(var.counter);
      if (var.klass == profiler::EventClass::Core) {
        sets[v].candidate_features.push_back(
            std::string(kMixShareInteractionPrefix) + var.counter);
      } else if (v == 1) {
        sets[v].candidate_features.push_back(
            std::string(kMixBwInteractionPrefix) + var.counter);
      }
    }
    sets[v].candidate_features.push_back(kMixSmShareFeature);
    if (v == 1) sets[v].candidate_features.push_back(kMixBwPressureFeature);
  }
  return sets;
}

/// Split a dataset's samples into fit/validation halves by predicate.
template <typename Pred>
std::pair<core::Dataset, core::Dataset> split_samples(
    const core::Dataset& ds, Pred into_validation) {
  std::pair<core::Dataset, core::Dataset> out;
  out.first.model = out.second.model = ds.model;
  for (std::size_t i = 0; i < ds.samples.size(); ++i) {
    (into_validation(i) ? out.second : out.first)
        .samples.push_back(ds.samples[i]);
  }
  return out;
}

/// Fit a mix family with its hyperparameters — candidate set and prefix
/// length — chosen on two complementary validation slices of the training
/// mixes: the last quarter (out-of-distribution under workload drift, the
/// split that exposes extrapolating fits) and every fourth sample
/// (in-distribution).  The pair minimizing the WORSE of the two validation
/// scores wins, then the family is refit on the full training set at that
/// configuration.  Selection runs on wape for the time target (the gate
/// metric) and mape for power.
core::ModelFamily fit_validated(const core::Dataset& train,
                                core::TargetKind target,
                                const core::ModelFamily& solo,
                                const core::ModelOptions& options) {
  const std::size_t n = train.samples.size();
  auto [fit_tail, val_tail] =
      split_samples(train, [n](std::size_t i) { return i >= n - n / 4; });
  auto [fit_mod, val_mod] =
      split_samples(train, [](std::size_t i) { return i % 4 == 3; });
  GPPM_CHECK(!val_tail.samples.empty() && !val_mod.samples.empty() &&
                 !fit_tail.samples.empty() && !fit_mod.samples.empty(),
             "mix training set too small for validation splits");

  const std::vector<core::ModelOptions> sets = candidate_sets(solo, options);
  core::ModelOptions best_opt = sets.front();
  best_opt.max_variables = 1;
  double best_score = std::numeric_limits<double>::infinity();
  for (const core::ModelOptions& set : sets) {
    const core::ModelFamily probe_tail =
        core::ModelFamily::fit(fit_tail, target, set);
    const core::ModelFamily probe_mod =
        core::ModelFamily::fit(fit_mod, target, set);
    const std::size_t kmax = std::min(probe_tail.size(), probe_mod.size());
    for (std::size_t k = 1; k <= kmax; ++k) {
      const core::Evaluation et = core::evaluate(probe_tail.at(k), val_tail);
      const core::Evaluation em = core::evaluate(probe_mod.at(k), val_mod);
      const double score =
          target == core::TargetKind::ExecTime
              ? std::max(et.wape(), em.wape())
              : std::max(et.mape(), em.mape());
      if (score < best_score) {
        best_score = score;
        best_opt = set;
        best_opt.max_variables = k;
      }
    }
  }
  return core::ModelFamily::fit(train, target, best_opt);
}

}  // namespace

MixModelSet fit_mix_models(const MixCorpus& corpus,
                           const core::ModelOptions& options) {
  MixModelSet set;
  set.model = corpus.model;
  set.degree = corpus.degree;
  set.solo_time =
      core::ModelFamily::fit(corpus.solo, core::TargetKind::ExecTime, options);
  set.solo_power =
      core::ModelFamily::fit(corpus.solo, core::TargetKind::Power, options);
  set.mix_time = fit_validated(corpus.member_train, core::TargetKind::ExecTime,
                               set.solo_time, options);

  // The power family fits on blended whole-mix profiles (no pseudo-counters
  // appended), so restricting candidates to the solo power basis suffices.
  core::ModelOptions power_opt = options;
  for (const core::SelectedVariable& v : set.solo_power.full().variables()) {
    power_opt.candidate_features.push_back(v.counter);
  }
  set.mix_power = core::ModelFamily::fit(corpus.power_train,
                                         core::TargetKind::Power, power_opt);
  return set;
}

double predict_member_time(const MixModelSet& models,
                           const profiler::ProfileResult& augmented,
                           sim::FrequencyPair pair) {
  const MixScalars s = mix_scalars(augmented);
  const double solo = models.solo_time.full().predict(augmented, pair);
  double mix = models.mix_time.full().predict(augmented, pair);
  if (solo > 0.0) {
    // Clamp to the physically admissible slowdown envelope relative to the
    // solo prediction: a member on an s-share partition under bandwidth
    // overcommit c slows by at most (1/s) * c (compute and memory both
    // fully stretched).  This bounds the damage a leverage point in a
    // small interference corpus can do at serving time.
    const double ceiling =
        solo * (1.0 + s.share_scalar) * (1.0 + s.bw_overcommit);
    mix = std::min(mix, ceiling);
    if (mix <= 0.0) mix = solo;  // a negative time is never the answer
  }
  return mix;
}

MixEvaluation evaluate_mix_models(const MixModelSet& models,
                                  const MixCorpus& corpus) {
  GPPM_CHECK(!corpus.member_eval.samples.empty() &&
                 !corpus.power_eval.samples.empty(),
             "empty mix evaluation split");
  MixEvaluation out;

  double solo_abs = 0.0, mix_abs = 0.0, actual_sum = 0.0;
  double solo_ape = 0.0, mix_ape = 0.0, bias = 0.0;
  std::size_t rows = 0;
  for (const core::Sample& s : corpus.member_eval.samples) {
    for (const core::Measurement& run : s.runs) {
      const double actual = run.exec_time.as_seconds();
      GPPM_CHECK(actual > 0.0, "non-positive contended time in eval split");
      const double solo = models.solo_time.full().predict(s.counters, run.pair);
      const double mix = predict_member_time(models, s.counters, run.pair);
      solo_abs += std::fabs(solo - actual);
      mix_abs += std::fabs(mix - actual);
      actual_sum += actual;
      solo_ape += std::fabs(solo - actual) / actual;
      mix_ape += std::fabs(mix - actual) / actual;
      bias += (solo - actual) / actual;
      ++rows;
    }
  }
  out.solo_time_wape = 100.0 * solo_abs / actual_sum;
  out.mix_time_wape = 100.0 * mix_abs / actual_sum;
  out.solo_time_mape = 100.0 * solo_ape / static_cast<double>(rows);
  out.mix_time_mape = 100.0 * mix_ape / static_cast<double>(rows);
  out.solo_signed_bias = bias / static_cast<double>(rows);

  const core::Evaluation power_eval =
      core::evaluate(models.mix_power.full(), corpus.power_eval);
  out.power_wape = power_eval.wape();
  out.power_mape = power_eval.mape();
  return out;
}

}  // namespace gppm::mix
