// The benchmark's own statistics: the percentile rule, the open-loop
// generator with due-time accounting, the breakdown check and the JSON record.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kMinBeyond = 10;
}  // namespace

double percentile(std::vector<double>& samples, double q) {
  const std::size_t n = samples.size();
  // Nearest rank: the ceil(q n)-th smallest sample (1-based).
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (n == 0 || rank == 0 || n - rank < kMinBeyond) {
    throw RefusedPercentile("p" + std::to_string(q * 100.0) + " of " +
                            std::to_string(n) +
                            " samples: fewer than 10 samples beyond it");
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n > 0 && rank > 0 && n - rank >= kMinBeyond) best = q * 100.0;
  }
  return best;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double lower_quartile(std::vector<double> windows) {
  if (windows.empty()) return 0.0;
  std::sort(windows.begin(), windows.end());
  return windows[(windows.size() - 1) / 4];
}

bool adds_up(double total, const std::vector<double>& parts,
             double max_remainder) {
  double sum = 0.0;
  for (double p : parts) {
    if (!(p >= 0.0)) return false;
    sum += p;
  }
  return std::abs(total - sum) <= max_remainder * std::abs(total);
}

std::vector<std::vector<OpenLoopSample>> run_open_loop(
    double rate, double seconds, std::size_t threads, std::uint64_t seed,
    const std::function<void(std::size_t, std::uint64_t)>& prepare,
    const std::function<void(std::size_t)>& send) {
  std::vector<std::vector<OpenLoopSample>> samples(threads);
  const double per_thread_rate = rate / static_cast<double>(threads);
  // A short lead so every thread is waiting before the first due time.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // 1 ns timer slack: wake-ups land on the due time, not up to 50 us
      // after it (the default slack), which would read as server latency.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      std::vector<OpenLoopSample>& mine = samples[t];
      mine.reserve(static_cast<std::size_t>(per_thread_rate * seconds * 1.1) +
                   16);
      double due = 0.0;
      for (std::uint64_t k = 0;; ++k) {
        const double u = unit_interval(draw_bits(seed, 0x6f70656e, t, k));
        due += -std::log1p(-u) / per_thread_rate;
        if (due >= seconds) break;
        const Clock::time_point due_at =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due));
        prepare(t, k * threads + t);
        std::this_thread::sleep_until(due_at);
        const Clock::time_point sent = Clock::now();
        send(t);
        const Clock::time_point done = Clock::now();
        mine.push_back({due, seconds_between(due_at, done),
                        seconds_between(due_at, sent)});
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return samples;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
