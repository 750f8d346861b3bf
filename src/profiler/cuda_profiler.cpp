#include "profiler/cuda_profiler.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace gppm::profiler {

CudaProfiler::CudaProfiler(std::uint64_t seed) : seed_(seed) {}

void CudaProfiler::set_sampling_sigma(double sigma) {
  GPPM_CHECK(sigma >= 0.0, "negative sampling sigma");
  sampling_sigma_ = sigma;
}

const std::vector<std::string>& CudaProfiler::unsupported_benchmarks() {
  // The paper: "All the benchmark programs ... except for three (mummergpu,
  // backprop and pathfinder) from Rodinia and one (bfs) ... failed to be
  // analyzed by the CUDA Profiler".
  static const std::vector<std::string> list = {"mummergpu", "backprop",
                                                "pathfinder", "bfs"};
  return list;
}

bool CudaProfiler::supports(const std::string& benchmark_name) {
  for (const std::string& n : unsupported_benchmarks()) {
    if (n == benchmark_name) return false;
  }
  return true;
}

ProfileResult CudaProfiler::collect_events(sim::Architecture arch,
                                           const sim::HardwareEvents& events,
                                           Duration run_time,
                                           std::uint64_t run_key) const {
  const auto& catalog = counter_catalog(arch);

  ProfileResult out;
  out.run_time = run_time;
  out.counters.reserve(catalog.size());
  const double run_seconds = run_time.as_seconds();
  GPPM_CHECK(run_seconds > 0.0, "zero-length profiled run");

  for (const CounterDef& def : catalog) {
    const double truth = def.extract(events);
    // SM-sampling extrapolation: the profiler counts on one SM/TPC and
    // multiplies up; workload imbalance turns into a systematic relative
    // error that is stable for a given (counter, workload) pair.
    Rng rng = Rng(seed_).fork(fnv1a(def.name.str()) ^ run_key);
    double observed = truth * (1.0 + rng.normal(0.0, sampling_sigma_));
    observed = std::max(0.0, std::round(observed));  // counters are integers

    CounterReading r;
    r.name = def.name;
    r.klass = def.klass;
    r.total = observed;
    r.per_second = observed / run_seconds;
    out.counters.push_back(std::move(r));
  }
  return out;
}

ProfileResult CudaProfiler::collect(const sim::Gpu& gpu,
                                    const sim::RunProfile& profile) const {
  if (!supports(profile.benchmark_name)) {
    throw ProfilerUnsupported(profile.benchmark_name);
  }

  const sim::RunExecution exec = gpu.run(profile);

  // A stable key for this run's identity: the set of kernels profiled.
  std::uint64_t run_key = fnv1a(profile.benchmark_name);
  for (const sim::KernelProfile& k : profile.kernels) run_key ^= fnv1a(k.name);

  return collect_events(gpu.spec().architecture, exec.events, exec.total_time,
                        run_key);
}

}  // namespace gppm::profiler
