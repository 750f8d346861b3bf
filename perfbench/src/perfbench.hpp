// The repo benchmark: shared vocabulary of its translation units.
//
//   adapter.cpp   the one place requests are built and answers are read
//   streams.cpp   seeded, lazily generated request streams over the corpus
//   measure.cpp   percentile rule, open-loop generator, breakdown check, JSON
//   fitpath.cpp   fit passes, corpus/model digests, NaiveQr cross-check
//   wire.cpp      the loopback rig and the light / heavy / sat phases
//   selftest.cpp  self-tests of the benchmark's own machinery
//   main.cpp      argument parsing, provenance, the run itself
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/unified_model.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/server.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
namespace sim = gppm::sim;
namespace serve = gppm::serve;
namespace core = gppm::core;
namespace net = gppm::net;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::size_t board_slot(sim::GpuModel gpu) {
  return static_cast<std::size_t>(gpu);
}

// --- adapter.cpp ------------------------------------------------------------

/// One corpus phase: a board and a counter profile owned by a Dataset.
struct Phase {
  sim::GpuModel gpu = sim::GpuModel::GTX680;
  const gppm::profiler::ProfileResult* counters = nullptr;
};

/// Build the request for `phase`.  `counter_scale` multiplies every counter
/// reading (totals and rates); 1.0 sends the corpus profile unchanged.
serve::Request make_request(const Phase& phase, serve::RequestKind kind,
                            sim::FrequencyPair pair, double counter_scale);

/// Compact record of one answer: 0 for a failed answer, otherwise a digest
/// of (status, pair, power, time, energy) whose low byte holds the pair.
std::uint64_t answer_record(const serve::Response& response);
/// The pair stored in a non-zero answer record.
sim::FrequencyPair record_pair(std::uint64_t record);

struct Models;
/// The record the server must answer a Predict or Optimize `request` with,
/// computed from the fitted models alone (UnifiedModel::predict and
/// core::predict_all_pairs), so it shares no cache or fingerprint with the
/// server.  Govern answers depend on governor state and are not computed.
std::uint64_t expected_record(const Models& models,
                              const serve::Request& request);

// --- streams.cpp ------------------------------------------------------------

/// splitmix64 finalizer: the benchmark's only source of randomness.
std::uint64_t mix64(std::uint64_t x);
/// Hash of a (seed, stream, index, field) tuple.
std::uint64_t draw_bits(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t index, std::uint64_t field);
/// Uniform double in [0, 1) from 64 random bits.
double unit_interval(std::uint64_t bits);

/// What the wire carries.
enum class Traffic {
  Mixed,   ///< 60% Predict, 30% Optimize, 10% Govern over recurring phases
  Unique,  ///< 100% Predict, every profile scaled by a fresh factor
};

/// Stream ids: each phase of a run draws from its own index space.
enum StreamId : std::uint64_t {
  kWarmupStream = 1,
  kLightStream = 2,
  kHeavyStream = 3,
  kSatStream = 4,
  kProbeStream = 5,
  kSatTracedStream = 6,
  kSelftestStream = 7,
};

/// The corpus phases requests are drawn from, plus each board's
/// configurable pairs.  Views into datasets owned by the caller.
struct Corpus {
  std::vector<Phase> phases;
  std::array<std::vector<sim::FrequencyPair>, sim::kAllGpus.size()> pairs;
};
Corpus make_corpus(const std::array<core::Dataset, 4>& datasets);

/// Request i of a stream is a pure function of (seed, stream, i): nothing
/// is materialised ahead of time.
class RequestStream {
 public:
  RequestStream(const Corpus& corpus, Traffic traffic, std::uint64_t seed,
                std::uint64_t stream)
      : corpus_(&corpus), traffic_(traffic), seed_(seed), stream_(stream) {}

  serve::Request request(std::uint64_t index) const;

 private:
  serve::RequestKind kind(std::uint64_t index) const;

  const Corpus* corpus_;
  Traffic traffic_;
  std::uint64_t seed_;
  std::uint64_t stream_;
};

// --- measure.cpp ------------------------------------------------------------

/// Thrown when a percentile is asked of too few samples.
struct RefusedPercentile : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Nearest-rank percentile (q in (0, 1)) of `samples`, which it sorts.
/// Refuses (throws RefusedPercentile) unless at least 10 samples lie beyond
/// it, so p99 needs >= 1000 samples.
double percentile(std::vector<double>& samples, double q);
/// The highest of p50/p90/p99/p99.9/p99.99 that `n` samples support, or 0.
double highest_supported_percentile(std::size_t n);
double median(std::vector<double> samples);
/// The lower quartile of per-window values (latencies).
double lower_quartile(std::vector<double> windows);

/// True when `parts` are non-negative and sum to `total` within
/// `max_remainder` x |total|.
bool adds_up(double total, const std::vector<double>& parts,
             double max_remainder);

/// One open-loop request: seconds from phase start to its due time, from
/// due time to completion, and from due time to its actual send.
struct OpenLoopSample {
  double due = 0.0;
  double latency = 0.0;
  double late = 0.0;
};

/// Drive requests on a seeded Poisson schedule of `rate` requests/s split
/// over `threads` threads for `seconds`.  Thread t handles indices t,
/// t + threads, t + 2 threads, ...: `prepare(t, index)` runs before the due
/// time, `send(t)` at it.  Latency is timed from each request's due time,
/// so a stall is carried by the requests behind it.
std::vector<std::vector<OpenLoopSample>> run_open_loop(
    double rate, double seconds, std::size_t threads, std::uint64_t seed,
    const std::function<void(std::size_t, std::uint64_t)>& prepare,
    const std::function<void(std::size_t)>& send);

/// Process peak resident set (VmHWM) in MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result record: one JSON object on one line.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

// --- fitpath.cpp ------------------------------------------------------------

/// A setup's corpus and its fitted models, one board per slot.
struct Models {
  std::array<core::Dataset, 4> data;
  std::array<core::UnifiedModel, 4> power;
  std::array<core::UnifiedModel, 4> perf;
};

/// Build the corpus of every board at `seed` and fit both targets.
std::unique_ptr<Models> fit_all(std::uint64_t seed);

/// One untraced fit pass at `seed`: the seconds spent building corpora and
/// fitting, and (evaluated outside that time) the mean absolute % error of
/// its eight models on their own corpus.
struct PassResult {
  double seconds = 0.0;
  double error_pct = 0.0;
};
PassResult fit_pass(std::uint64_t seed);

/// A traced fit pass: spans around each layer call, summed over the pass.
struct PassTrace {
  double wall_ms = 0.0;     ///< the pass (dataset + fit calls)
  double dataset_ms = 0.0;  ///< core::build_dataset
  double fit_ms = 0.0;      ///< core::UnifiedModel::fit
  double table_ms = 0.0;    ///< core::build_table (diagnostic call)
  double select_ms = 0.0;   ///< stats::forward_select (diagnostic call)
  std::size_t rows = 0;
  std::size_t candidates = 0;
  std::size_t selected = 0;
  bool consistent = true;   ///< diagnostic selection == the fitted model's
};
PassTrace traced_fit_pass(std::uint64_t seed);

std::uint64_t corpus_digest(const core::Dataset& dataset);
/// Digest of every corpus and model fingerprint of a setup.
std::uint64_t models_digest(const Models& models);
/// The digest pinned for kPinnedSeed.
inline constexpr std::uint64_t kPinnedSeed = 42;
bool pinned_digest_matches(std::string& detail);
/// Refit one (board, target), chosen by `seed`, with the NaiveQr engine and
/// compare it to the default engine's model.
bool naive_qr_matches(const Models& models, std::uint64_t seed,
                      std::string& detail);

// --- wire.cpp ---------------------------------------------------------------

/// The loopback rig: PredictionServer (2 workers) behind net::Server,
/// driven by one net::Client with 2 pooled connections.  Members are
/// destroyed client first, models last.
struct Rig {
  Traffic traffic = Traffic::Mixed;
  std::uint64_t seed = 0;
  std::unique_ptr<Models> models;
  Corpus corpus;
  std::unique_ptr<serve::PredictionServer> backend;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;

  /// The run's request stream `id`.
  RequestStream stream(std::uint64_t id) const {
    return RequestStream(corpus, traffic, seed, id);
  }
};

inline constexpr std::size_t kLoadThreads = 2;
inline constexpr std::size_t kSatBatch = 32;

/// Corpus, fit, server up and the untimed warm-up.
std::unique_ptr<Rig> set_up(Traffic traffic, std::uint64_t seed);

/// Answers of one phase, per load thread, in index order.
struct PhaseLog {
  std::uint64_t stream = 0;
  /// Requests per send: 1 for open loop, kSatBatch for the closed loop.
  /// Record p of thread t answers index ((p / batch) * threads + t) *
  /// batch + p % batch.
  std::size_t batch = 1;
  std::vector<std::vector<std::uint64_t>> records;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Per-request spans of open-loop phases.
struct WireSpans {
  std::vector<double> rtt_us;
  std::vector<double> server_us;
  std::vector<serve::RequestKind> kinds;
  std::size_t server_exceeds_rtt = 0;
};

struct OpenLoopPhase {
  PhaseLog log;
  std::vector<double> latency_us;
  std::vector<double> late_us;
};
OpenLoopPhase open_loop_phase(Rig& rig, std::uint64_t stream, double rate,
                              double seconds, WireSpans& spans);

struct SatPhase {
  PhaseLog log;
  double ok_per_second = 0.0;
  /// Process CPU microseconds per Ok answer over the slice: the load
  /// threads, the client and the whole server, which is all that runs.
  double cpu_us_per_ok = 0.0;
  /// Traced only: share of the threads' time spent building requests.
  double build_share = 0.0;
};
SatPhase sat_phase(Rig& rig, std::uint64_t stream, double seconds,
                   bool traced);

/// Regenerate every logged request and check its answer against
/// expected_record (bit-identical) or, for Govern, against the board's
/// configurable pairs.  Returns the number of wrong answers.
std::uint64_t verify_phase(const Rig& rig, const PhaseLog& log);

// --- selftest.cpp -----------------------------------------------------------

/// Run every self-test; failures are written to `failures`.
bool run_selftests(const Rig& rig, std::vector<std::string>& failures);

}  // namespace perfbench
