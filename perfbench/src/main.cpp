// perfbench: the repo benchmark.
//
//   perfbench --workload <wire_mixed|wire_unique> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <sha>]
//
// Prints a provenance line, then as its last line one JSON record
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when any
// answer or check is wrong, 2 on bad usage or a build it refuses to record
// from.  See ../README.md.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <tuple>
#include <thread>

#include "common/simd.hpp"
#include "core/governor.hpp"
#include "core/optimizer.hpp"
#include "net/protocol.hpp"
#include "obs/obs.hpp"
#include "perfbench.hpp"
#include "serve/cache.hpp"

using namespace perfbench;

namespace {

struct Workload {
  const char* name;
  Traffic traffic;
};

constexpr Workload kWorkloads[] = {
    {"wire_mixed", Traffic::Mixed},
    {"wire_unique", Traffic::Unique},
};

// A measured round is a sat slice, then fit passes for the rest.  It has
// no open-loop slice: their latencies are too host-dependent to bound (see
// README.md), so only the traced run measures them.
constexpr double kSatShare = 0.5;
// A traced round: light and heavy slices, an untraced and a traced sat
// slice, then untraced and traced fit passes.
constexpr double kTracedLightShare = 0.30;
constexpr double kTracedHeavyShare = 0.30;
constexpr double kTracedSatShare = 0.22;
constexpr double kTracedFitShare = 0.18;
constexpr double kLightRate = 4000.0;  // requests/s, open loop
constexpr double kHeavyRate = 8000.0;  // requests/s, open loop
// setup_s is the median of this many set-ups, spread over the run so that
// they sample the host as the rounds do.
constexpr std::size_t kSetups = 5;
// A run is a sequence of rounds of at least this many seconds, each with
// one slice of every phase, so every metric samples the whole run.
constexpr double kMinRoundSeconds = 1.25;
constexpr std::size_t kProbes = 2000;   // per-call layer probes
// The fit breakdown must explain the pass: dataset + table + select may
// leave at most this share of it to fit.other_ms.
constexpr double kFitRemainder = 0.15;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: perfbench --workload <wire_mixed|wire_unique> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <sha>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (value == w.name) o.workload = &w;
        }
        if (o.workload == nullptr) usage("unknown workload " + value);
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      } else if (flag == "--commit") {
        o.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  if (!(o.seconds >= 1.0 && o.seconds <= 60.0)) {
    usage("--seconds must be within [1, 60]");
  }
  return o;
}

const char* refused_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if !defined(__OPTIMIZE__)
  return "unoptimized build";
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "non-release build type";
  }
  return nullptr;
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one;
  in >> one;
  return one.empty() ? "unknown" : one;
}

void print_provenance(const Options& o) {
  std::cout << "{\"provenance\": {\"commit\": \"" << o.commit
            << "\", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"simd_backend\": \""
            << gppm::simd::kBackend
            << "\", \"simd_lane_width\": " << gppm::simd::kLaneWidth
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"loadavg_1m\": " << load_average()
            << ", \"obs_enabled\": "
            << (gppm::obs::enabled() ? "true" : "false")
            << ", \"workload\": \"" << o.workload->name
            << "\", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
            << ", \"trace\": " << (o.trace ? 1 : 0) << "}}\n";
}

/// Percentile in the unit of `samples` (0 when there are none).
double pct(std::vector<double> samples, double q) {
  return samples.empty() ? 0.0 : percentile(samples, q);
}

/// Time one call of `fn`, appending its nanoseconds to `ns`.
template <class Fn>
void per_call(std::vector<double>& ns, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  ns.push_back(seconds_between(t0, Clock::now()) * 1e9);
}

struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void add(const PhaseLog& log) {
    attempted += log.attempted;
    failed += log.failed;
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) problems.push_back(name + " is not finite");
    metrics.push_back({name, value, unit});
  }
};

std::size_t round_count(double seconds) {
  return std::max<std::size_t>(
      4, static_cast<std::size_t>(seconds / kMinRoundSeconds));
}

/// Stream id of one phase slice of one round.
std::uint64_t slice_stream(std::uint64_t phase, std::size_t round) {
  return phase + 0x100 * static_cast<std::uint64_t>(round);
}

/// Count a slice's answers and check them against the fitted models.
void check_slice(const Rig& rig, Run& run, const PhaseLog& log) {
  run.add(log);
  const std::uint64_t wrong = verify_phase(rig, log);
  if (wrong > 0) {
    run.problems.push_back(std::to_string(wrong) + " wire answers wrong");
  }
  run.failed += wrong;
}

/// The once-per-run checks of the fit path.
void check_fit_path(const Rig& rig, Run& run) {
  std::string detail;
  if (!naive_qr_matches(*rig.models, rig.seed, detail)) {
    run.problems.push_back(detail);
    ++run.failed;
  }
  if (!pinned_digest_matches(detail)) {
    run.problems.push_back(detail);
    ++run.failed;
  }
}

void end_to_end(const Options& o, Run& run) {
  const Workload& w = *o.workload;
  // Per-window values; each slice is checked right after it, untimed.
  std::vector<double> setups, sat_cpu_us, pass_s, pass_err;
  std::unique_ptr<Rig> rig;
  const std::size_t rounds = round_count(o.seconds);
  const double round_s = o.seconds / static_cast<double>(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    // A fresh set-up replaces the rig before rounds 0, 5, 10, ... (at the
    // pinned 24 rounds).  The old one is torn down first, untimed, and its
    // memory handed back, so that peak_rss_mb holds one rig, not several.
    if (setups.size() < kSetups && r * kSetups >= setups.size() * rounds) {
      rig.reset();
      malloc_trim(0);
      const Clock::time_point t0 = Clock::now();
      rig = set_up(w.traffic, o.seed);
      setups.push_back(seconds_between(t0, Clock::now()));
      if (r == 0 && !run_selftests(*rig, run.problems)) return;
    }
    {
      const SatPhase sat = sat_phase(*rig, slice_stream(kSatStream, r),
                                     kSatShare * round_s, false);
      sat_cpu_us.push_back(sat.cpu_us_per_ok);
      check_slice(*rig, run, sat.log);
    }
    // The first pass after the wire slices runs about a third slower (cold
    // caches and allocator), so each fit slice starts with an untimed one.
    const Clock::time_point fit_start = Clock::now();
    for (std::size_t pass = 0;
         pass < 2 || seconds_between(fit_start, Clock::now()) <
                         (1.0 - kSatShare) * round_s;
         ++pass) {
      const PassResult result = fit_pass(o.seed + pass_err.size());
      pass_err.push_back(result.error_pct);
      if (pass > 0) pass_s.push_back(result.seconds);
    }
  }
  run.attempted += pass_err.size();
  const double rss = peak_rss_mb();
  check_fit_path(*rig, run);

  std::cerr << rounds << " rounds; " << pass_s.size() << " timed fit passes\n";
  double error_sum = 0.0;
  for (double e : pass_err) error_sum += e;
  // CPU time per answer leaves out the time the host took away, so its
  // median over the slices is steady where throughput is not; so is the
  // median fit pass (see README.md).
  run.metric("sat_cpu_us", median(sat_cpu_us), "us");
  run.metric("fit_s", median(pass_s), "s");
  run.metric("model_err_pct", error_sum / static_cast<double>(pass_err.size()),
             "%");
  run.metric("setup_s", median(setups), "s");
  run.metric("peak_rss_mb", rss, "MB");
}

/// Per-call nanoseconds of each layer's public functions, called from here
/// one at a time on kProbes requests of the run's own stream.
struct Probes {
  std::vector<double> req_enc, req_dec, resp_enc, resp_dec, fingerprint,
      inproc, predict, optimize, govern;
  std::uint64_t wrong = 0;
};

Probes probe_layers(Rig& rig) {
  const RequestStream stream = rig.stream(kProbeStream);
  Probes p;
  std::array<std::unique_ptr<core::DvfsGovernor>, sim::kAllGpus.size()>
      governors;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    const serve::Request request = stream.request(i);
    const std::size_t b = board_slot(request.gpu);
    const core::UnifiedModel& power = rig.models->power[b];
    const core::UnifiedModel& perf = rig.models->perf[b];
    std::vector<std::uint8_t> payload;
    per_call(p.req_enc,
             [&] { payload = net::encode_predict_request(i, request); });
    net::DecodedRequest decoded;
    per_call(p.req_dec,
             [&] { decoded = net::decode_predict_request(payload, 0); });
    per_call(p.fingerprint, [&] {
      volatile std::uint64_t fp = serve::counters_fingerprint(request.counters);
      (void)fp;
    });
    serve::Response answer;
    per_call(p.inproc, [&] { answer = rig.backend->submit(request).get(); });
    if (!answer.ok()) ++p.wrong;
    std::vector<std::uint8_t> reply;
    per_call(p.resp_enc,
             [&] { reply = net::encode_predict_response(i, answer); });
    net::DecodedResponse back;
    per_call(p.resp_dec, [&] { back = net::decode_predict_response(reply); });
    // Both codecs must round-trip what they were given.
    if (net::encode_predict_request(i, decoded.request) != payload ||
        answer_record(back.response) != answer_record(answer)) {
      ++p.wrong;
    }
    per_call(p.predict, [&] {
      volatile double v = power.predict(request.counters, request.pair);
      (void)v;
    });
    per_call(p.predict, [&] {
      volatile double v = perf.predict(request.counters, request.pair);
      (void)v;
    });
    per_call(p.optimize, [&] {
      core::predict_min_energy_pair(power, perf, request.counters);
    });
    auto& governor = governors[b];
    if (!governor) governor = std::make_unique<core::DvfsGovernor>(power, perf);
    per_call(p.govern, [&] { governor->decide(request.counters); });
  }
  return p;
}

void per_layer(const Options& o, Run& run) {
  const Workload& w = *o.workload;
  std::unique_ptr<Rig> rig = set_up(w.traffic, o.seed);
  if (!run_selftests(*rig, run.problems)) return;
  // --- rounds: untraced and traced sat slices, traced light and heavy
  // slices, untraced and traced fit passes.  Paired slices of one round
  // share the host's state, so their ratio is the tracing overhead.
  const serve::ServerMetrics m0 = rig->backend->metrics();
  const net::ServerStats n0 = rig->server->stats();
  WireSpans spans;
  std::vector<PhaseLog> logs;
  std::vector<double> late_us, sat_rps, sat_ratio, fit_ratio, light_p50,
      light_p99, heavy_p50, heavy_p99, build_share;
  std::size_t smallest_slice = SIZE_MAX;
  std::vector<PassTrace> traces;
  const std::size_t rounds = round_count(o.seconds);
  const double round_s = o.seconds / static_cast<double>(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const SatPhase plain =
        sat_phase(*rig, slice_stream(kSatStream, r),
                  0.5 * kTracedSatShare * round_s, false);
    for (const auto& [stream, rate, share, p50, p99] :
         {std::tuple{kLightStream, kLightRate, kTracedLightShare, &light_p50,
                     &light_p99},
          std::tuple{kHeavyStream, kHeavyRate, kTracedHeavyShare, &heavy_p50,
                     &heavy_p99}}) {
      OpenLoopPhase phase = open_loop_phase(*rig, slice_stream(stream, r),
                                            rate, share * round_s, spans);
      p50->push_back(pct(phase.latency_us, 0.50));
      p99->push_back(pct(phase.latency_us, 0.99));
      smallest_slice = std::min(smallest_slice, phase.latency_us.size());
      late_us.insert(late_us.end(), phase.late_us.begin(), phase.late_us.end());
      logs.push_back(std::move(phase.log));
    }
    const SatPhase traced =
        sat_phase(*rig, slice_stream(kSatTracedStream, r),
                  0.5 * kTracedSatShare * round_s, true);
    sat_rps.push_back(plain.ok_per_second);
    sat_ratio.push_back(plain.ok_per_second / traced.ok_per_second);
    build_share.push_back(traced.build_share);
    logs.push_back(plain.log);
    logs.push_back(traced.log);
    const Clock::time_point fit_start = Clock::now();
    do {
      const std::uint64_t pass_seed = o.seed + traces.size();
      const double plain_ms = fit_pass(pass_seed).seconds * 1e3;
      traces.push_back(traced_fit_pass(pass_seed));
      fit_ratio.push_back(traces.back().wall_ms / plain_ms);
    } while (seconds_between(fit_start, Clock::now()) <
             kTracedFitShare * round_s);
  }
  const serve::ServerMetrics m1 = rig->backend->metrics();
  const net::ServerStats n1 = rig->server->stats();
  const net::ClientStats client = rig->client->stats();

  const Probes probes = probe_layers(*rig);
  run.attempted += kProbes;
  run.failed += probes.wrong;
  if (probes.wrong > 0) {
    run.problems.push_back(std::to_string(probes.wrong) +
                           " probe answers wrong");
  }

  run.attempted += 2 * traces.size();
  PassTrace mean;
  for (const PassTrace& t : traces) {
    mean.wall_ms += t.wall_ms / traces.size();
    mean.dataset_ms += t.dataset_ms / traces.size();
    mean.fit_ms += t.fit_ms / traces.size();
    mean.table_ms += t.table_ms / traces.size();
    mean.select_ms += t.select_ms / traces.size();
    if (!t.consistent) {
      run.problems.push_back("traced selection differs from the fitted model");
      ++run.failed;
    }
  }
  const double other_ms = mean.fit_ms - mean.table_ms - mean.select_ms;
  if (!adds_up(mean.wall_ms, {mean.dataset_ms, mean.table_ms, mean.select_ms},
               kFitRemainder) ||
      !adds_up(mean.wall_ms, {mean.dataset_ms, mean.fit_ms}, 0.01)) {
    run.problems.push_back("fit breakdown does not add up to the pass");
    ++run.failed;
  }
  if (spans.server_exceeds_rtt > 0) {
    run.problems.push_back("server latency exceeds round trip on " +
                           std::to_string(spans.server_exceeds_rtt) +
                           " requests: the wire breakdown does not add up");
    ++run.failed;
  }

  for (const PhaseLog& log : logs) check_slice(*rig, run, log);
  check_fit_path(*rig, run);

  // --- metrics --------------------------------------------------------------
  const double frames_in =
      static_cast<double>(n1.frames_received - n0.frames_received);
  const double frames_out =
      static_cast<double>(n1.frames_sent - n0.frames_sent);
  run.metric("net.req_bytes",
             (n1.bytes_received - n0.bytes_received) / frames_in, "B");
  run.metric("net.resp_bytes", (n1.bytes_sent - n0.bytes_sent) / frames_out,
             "B");
  run.metric("net.req_encode_ns", median(probes.req_enc), "ns");
  run.metric("net.req_decode_ns", median(probes.req_dec), "ns");
  run.metric("net.resp_encode_ns", median(probes.resp_enc), "ns");
  run.metric("net.resp_decode_ns", median(probes.resp_dec), "ns");
  std::vector<double> transport(spans.rtt_us.size());
  for (std::size_t i = 0; i < transport.size(); ++i) {
    transport[i] = spans.rtt_us[i] - spans.server_us[i];
  }
  run.metric("net.transport_us.p50", pct(transport, 0.50), "us");
  run.metric("net.transport_us.p99", pct(transport, 0.99), "us");
  run.metric("net.protocol_errors", n1.protocol_errors, "count");
  run.metric("net.client.retries", client.transport_retries, "count");

  const std::pair<serve::RequestKind, const char*> kinds[] = {
      {serve::RequestKind::Predict, "predict"},
      {serve::RequestKind::Optimize, "optimize"},
      {serve::RequestKind::Govern, "govern"}};
  for (const auto& [kind, name] : kinds) {
    std::vector<double> latency;
    for (std::size_t i = 0; i < spans.kinds.size(); ++i) {
      if (spans.kinds[i] == kind) latency.push_back(spans.server_us[i]);
    }
    const std::string prefix = std::string("serve.latency_us.") + name;
    run.metric(prefix + ".p50", pct(latency, 0.50), "us");
    run.metric(prefix + ".p99", pct(latency, 0.99), "us");
  }
  run.metric("serve.inproc_us.p50", pct(probes.inproc, 0.50) / 1e3, "us");
  run.metric("serve.inproc_us.p99", pct(probes.inproc, 0.99) / 1e3, "us");
  run.metric("serve.fingerprint_ns", median(probes.fingerprint), "ns");
  const double hits = static_cast<double>(m1.cache.hits - m0.cache.hits);
  const double misses = static_cast<double>(m1.cache.misses - m0.cache.misses);
  run.metric("serve.cache.hit_ratio", hits / (hits + misses), "ratio");
  run.metric("serve.cache.evictions", m1.cache.evictions - m0.cache.evictions,
             "count");
  double batched = 0.0, batches = 0.0;
  for (std::size_t k = 0; k < m1.batch_size_counts.size(); ++k) {
    const double n = static_cast<double>(m1.batch_size_counts[k] -
                                         m0.batch_size_counts[k]);
    batched += n * static_cast<double>(k + 1);
    batches += n;
  }
  run.metric("serve.batch_mean", batched / batches, "requests");
  run.metric("serve.queue_high_water", m1.queue_high_water, "requests");
  run.metric("serve.shed", m1.shed_requests, "count");
  run.metric("serve.deadline_expired", m1.deadline_expired, "count");

  run.metric("core.predict_ns", median(probes.predict), "ns");
  run.metric("core.optimize_us", median(probes.optimize) / 1e3, "us");
  run.metric("core.govern_us", median(probes.govern) / 1e3, "us");

  const double boards = static_cast<double>(sim::kAllGpus.size());
  run.metric("fit.dataset_ms", mean.dataset_ms / boards, "ms");
  run.metric("fit.table_ms", mean.table_ms / (2 * boards), "ms");
  run.metric("fit.select_ms", mean.select_ms / (2 * boards), "ms");
  run.metric("fit.other_ms", other_ms / (2 * boards), "ms");
  run.metric("fit.rows", traces.front().rows, "count");
  run.metric("fit.candidates", traces.front().candidates, "count");
  run.metric("fit.selected", traces.front().selected, "count");

  std::cerr << rounds << " rounds; smallest open-loop slice " << smallest_slice
            << " samples (supports p"
            << highest_supported_percentile(smallest_slice) << ")\n";
  // Stalls and stolen time only slow a slice down: the fastest untraced
  // sat slice is the throughput the program reaches when the host lets it.
  run.metric("sat_rps", *std::max_element(sat_rps.begin(), sat_rps.end()),
             "1/s");
  run.metric("light.p50_us", lower_quartile(light_p50), "us");
  run.metric("light.p99_us", lower_quartile(light_p99), "us");
  run.metric("heavy.p50_us", lower_quartile(heavy_p50), "us");
  run.metric("heavy.p99_us", lower_quartile(heavy_p99), "us");
  run.metric("gen.late_p99_us", pct(late_us, 0.99), "us");
  run.metric("gen.sat_build_pct", median(build_share) * 100.0, "%");
  run.metric("trace_overhead_pct",
             (std::max(median(sat_ratio), median(fit_ratio)) - 1.0) * 100.0,
             "%");
  run.metric("err_frac",
             static_cast<double>(run.failed) /
                 static_cast<double>(std::max<std::uint64_t>(run.attempted, 1)),
             "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  // The fit path runs serially, as the paper's pipeline does.
  setenv("GPPM_THREADS", "1", 1);
  const Options o = parse(argc, argv);
  if (const char* why = refused_build()) {
    std::cerr << "error: refusing to record from a " << why << "\n";
    return 2;
  }
  print_provenance(o);

  Run run;
  try {
    if (o.trace) {
      per_layer(o, run);
    } else {
      end_to_end(o, run);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (gppm::obs::enabled()) run.problems.push_back("gppm::obs was enabled");
  for (const std::string& p : run.problems) std::cerr << "FAIL " << p << "\n";
  const bool correct = run.problems.empty() && run.failed == 0;
  if (run.metrics.empty()) return 1;  // a self-test failed before measuring
  std::cout << result_json(correct, std::max<std::uint64_t>(run.attempted, 1),
                           run.failed, run.metrics)
            << std::endl;
  return correct ? 0 : 1;
}
