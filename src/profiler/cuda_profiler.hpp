// CUDA-Profiler-like counter collection.
//
// Reproduces the observational properties of the paper's CUDA Profiler
// v2.01 workflow:
//   * counters are collected once per (benchmark, input size) at a chosen
//     operating point (the paper profiles at the default (H-H));
//   * values are extrapolated from a sampled subset of SMs, so readings
//     carry a systematic per-counter, per-workload error;
//   * a handful of programs cannot be analyzed at all and raise
//     ProfilerUnsupported (the paper drops mummergpu, backprop, pathfinder
//     and bfs for this reason, leaving 114 modeling samples);
//   * each counter is reported both as a run total (used by the paper's
//     performance model) and per second of run time (used by the power
//     model, "in order to predict the average W of the program").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "gpusim/engine.hpp"
#include "profiler/counters.hpp"

namespace gppm::profiler {

/// Raised when the profiler cannot analyze a program.
class ProfilerUnsupported : public Error {
 public:
  explicit ProfilerUnsupported(const std::string& benchmark)
      : Error("CUDA profiler cannot analyze benchmark: " + benchmark) {}
};

/// One collected counter.
struct CounterReading {
  CounterName name;  ///< borrowed from the catalog for catalog counters
  EventClass klass;
  double total = 0.0;       ///< run-total value
  double per_second = 0.0;  ///< total / run time
};
// Profiles are copied per request on the serving path and held by the
// thousand in corpora: a name handle keeps a reading at 40 bytes.
static_assert(sizeof(CounterReading) <= 40);

/// Result of profiling one run.
struct ProfileResult {
  std::vector<CounterReading> counters;  ///< catalog order
  Duration run_time;                     ///< run time during profiling
};

/// The profiler.  Deterministic given its seed; observation errors are
/// keyed on (counter, kernel set), not on call order.
class CudaProfiler {
 public:
  explicit CudaProfiler(std::uint64_t seed = 11);

  /// True if the profiler can analyze the benchmark (by name).
  static bool supports(const std::string& benchmark_name);

  /// Names of the unsupported programs (paper Section IV-A).
  static const std::vector<std::string>& unsupported_benchmarks();

  /// Collect counters for `profile` executed on `gpu` at its current
  /// operating point.  Throws ProfilerUnsupported for the unsupported set.
  ProfileResult collect(const sim::Gpu& gpu,
                        const sim::RunProfile& profile) const;

  /// Collect counters directly from an already-synthesized event record —
  /// the observation layer of `collect` without the execution step.  This
  /// is what the mix engine uses to profile *blended* events from
  /// co-scheduled kernels: the same catalog, the same SM-sampling error
  /// model, keyed on `run_key` (the caller's stable identity for the run,
  /// e.g. an fnv1a over the co-scheduled kernel names).
  ProfileResult collect_events(sim::Architecture arch,
                               const sim::HardwareEvents& events,
                               Duration run_time, std::uint64_t run_key) const;

  /// Relative stddev of the SM-sampling extrapolation error.
  double sampling_sigma() const { return sampling_sigma_; }
  void set_sampling_sigma(double sigma);

 private:
  std::uint64_t seed_;
  double sampling_sigma_ = 0.05;
};

}  // namespace gppm::profiler
