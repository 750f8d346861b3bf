#include "core/analytical_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/lstsq.hpp"
#include "profiler/counters.hpp"

namespace gppm::core {

namespace {

double counter_total(const profiler::ProfileResult& counters,
                     sim::Architecture arch, const std::string& name) {
  const std::size_t idx = profiler::counter_index(arch, name);
  GPPM_CHECK(idx < counters.counters.size(), "counter set too small");
  return counters.counters[idx].total;
}

/// Sum the totals of every counter whose name starts with `prefix` and
/// contains `infix`.
double sum_matching(const profiler::ProfileResult& counters,
                    const std::string& prefix, const std::string& infix) {
  double acc = 0.0;
  for (const profiler::CounterReading& r : counters.counters) {
    if (r.name.str().starts_with(prefix) &&
        r.name.str().find(infix) != std::string::npos) {
      acc += r.total;
    }
  }
  return acc;
}

}  // namespace

AnalyticalInputs analytical_inputs(const profiler::ProfileResult& counters,
                                   sim::Architecture arch) {
  AnalyticalInputs in;
  switch (arch) {
    case sim::Architecture::Tesla:
      in.warp_instructions = counter_total(counters, arch, "instructions");
      // Tesla exposes only size-binned transaction counts.
      in.dram_bytes =
          32.0 * counter_total(counters, arch, "gld_32b") +
          64.0 * counter_total(counters, arch, "gld_64b") +
          128.0 * counter_total(counters, arch, "gld_128b") +
          32.0 * counter_total(counters, arch, "gst_32b") +
          64.0 * counter_total(counters, arch, "gst_64b") +
          128.0 * counter_total(counters, arch, "gst_128b");
      in.launches = counter_total(counters, arch, "cta_launched");
      break;
    case sim::Architecture::Fermi:
    case sim::Architecture::Kepler:
      in.warp_instructions = counter_total(counters, arch, "inst_executed");
      // Frame-buffer sector counters are the DRAM-traffic ground truth on
      // the cached architectures (32B sectors).
      in.dram_bytes = 32.0 * (sum_matching(counters, "fb_", "read_sectors") +
                              sum_matching(counters, "fb_", "write_sectors"));
      in.launches = counter_total(counters, arch, "sm_cta_launched");
      break;
  }
  return in;
}

AnalyticalPerfModel AnalyticalPerfModel::calibrate(const Dataset& dataset) {
  GPPM_CHECK(!dataset.samples.empty(), "empty dataset");
  const sim::DeviceSpec& spec = sim::device_spec(dataset.model);

  // Materialize per-row terms once.
  struct Row {
    double compute_term;  // insts / f_core(GHz)
    double memory_term;   // bytes / f_mem(GHz)
    double launches;
    double time;
  };
  std::vector<Row> rows;
  for (const Sample& s : dataset.samples) {
    const AnalyticalInputs in =
        analytical_inputs(s.counters, spec.architecture);
    for (const Measurement& m : s.runs) {
      Row r;
      r.compute_term =
          in.warp_instructions /
          spec.core_clock.at(m.pair.core).frequency.as_ghz();
      r.memory_term =
          in.dram_bytes / spec.mem_clock.at(m.pair.mem).frequency.as_ghz();
      r.launches = in.launches;
      r.time = m.exec_time.as_seconds();
      rows.push_back(r);
    }
  }

  // Alternate bottleneck assignment and least squares (EM-style).  Start
  // from a normalized-magnitude split so the first regression sees both
  // regimes.
  double med_c = 0, med_m = 0;
  {
    std::vector<double> cs, ms;
    for (const Row& r : rows) {
      cs.push_back(r.compute_term);
      ms.push_back(r.memory_term);
    }
    std::nth_element(cs.begin(), cs.begin() + cs.size() / 2, cs.end());
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    med_c = std::max(cs[cs.size() / 2], 1e-12);
    med_m = std::max(ms[ms.size() / 2], 1e-12);
  }
  std::vector<bool> compute_bound(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    compute_bound[i] =
        rows[i].compute_term / med_c >= rows[i].memory_term / med_m;
  }

  AnalyticalParams p;
  for (int iter = 0; iter < 12; ++iter) {
    linalg::Matrix design(rows.size(), 4);
    linalg::Vector target(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      design(i, 0) = compute_bound[i] ? rows[i].compute_term : 0.0;
      design(i, 1) = compute_bound[i] ? 0.0 : rows[i].memory_term;
      design(i, 2) = rows[i].launches;
      design(i, 3) = 1.0;
      target[i] = rows[i].time;
    }
    const linalg::LstsqResult sol = linalg::lstsq(design, target);
    p.alpha_compute = std::max(sol.x[0], 1e-15);
    p.alpha_memory = std::max(sol.x[1], 1e-15);
    p.beta_launch = std::max(sol.x[2], 0.0);
    p.gamma_fixed = std::max(sol.x[3], 0.0);

    bool changed = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const bool now = p.alpha_compute * rows[i].compute_term >=
                       p.alpha_memory * rows[i].memory_term;
      if (now != compute_bound[i]) {
        compute_bound[i] = now;
        changed = true;
      }
    }
    if (!changed) break;
  }

  AnalyticalPerfModel model;
  model.params_ = p;
  model.gpu_ = dataset.model;
  return model;
}

double AnalyticalPerfModel::predict_seconds(
    const profiler::ProfileResult& counters, sim::FrequencyPair pair) const {
  const sim::DeviceSpec& spec = sim::device_spec(gpu_);
  const AnalyticalInputs in = analytical_inputs(counters, spec.architecture);
  const double compute = params_.alpha_compute * in.warp_instructions /
                         spec.core_clock.at(pair.core).frequency.as_ghz();
  const double memory = params_.alpha_memory * in.dram_bytes /
                        spec.mem_clock.at(pair.mem).frequency.as_ghz();
  return std::max(1e-6, std::max(compute, memory) +
                            params_.beta_launch * in.launches +
                            params_.gamma_fixed);
}

AnalyticalPerfModel AnalyticalPerfModel::transferred_to(
    sim::GpuModel other) const {
  AnalyticalPerfModel copy = *this;
  copy.gpu_ = other;
  return copy;
}

}  // namespace gppm::core
