// Wire throughput and latency of the gppm::net RPC layer.
//
// An in-process PredictionServer behind a net::Server on a loopback
// ephemeral port, driven by closed-loop client threads sharing one pooled
// net::Client, in two phases:
//
//   * latency — serial predict() RPCs, one in flight per connection,
//     reporting the client-observed p50/p95/p99 round trip;
//   * throughput — pipelined predict_batch() calls (32 requests per send),
//     which amortize syscalls batch-fold and measure sustained
//     predictions/sec.
//
// The pair of phases is repeated kRepeats times and every figure is
// reported as median, min and max over the repeats: a single run of this
// bench has read 37k and then 49k predictions/s back to back on one host.
//
// Both phases check the protocol's core promise on every response: the
// prediction that crossed the wire is bit-identical to the one the
// in-process server returns for the same request.  Emits BENCH_net.json
// (rps and p50/p95/p99 us as {median, min, max}, protocol_errors,
// bit_identical) into the working directory.
//
// `--smoke` shrinks the request counts for the `bench`-labeled ctest
// smoke; the binary exits nonzero on any protocol error or divergent
// prediction in either mode, so the smoke doubles as a correctness gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/server.hpp"

using namespace gppm;

namespace {

constexpr sim::GpuModel kBoard = sim::GpuModel::GTX680;
constexpr std::size_t kClientThreads = 4;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kRepeats = 5;

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

bool bit_identical(const serve::Response& a, const serve::Response& b) {
  return std::memcmp(&a.power_watts, &b.power_watts, sizeof(double)) == 0 &&
         std::memcmp(&a.time_seconds, &b.time_seconds, sizeof(double)) == 0 &&
         std::memcmp(&a.energy_joules, &b.energy_joules, sizeof(double)) ==
             0 &&
         a.status == b.status && a.pair == b.pair;
}

/// One figure over the repeats.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return {percentile(values, 0.5), values.front(), values.back()};
}

void json_spread(std::ostream& os, const char* name, const Spread& s,
                 int digits) {
  os << "  \"" << name << "\": {\"median\": "
     << format_double(s.median, digits)
     << ", \"min\": " << format_double(s.min, digits)
     << ", \"max\": " << format_double(s.max, digits) << "},\n";
}

/// One repeat's client-observed figures.
struct Repeat {
  double rps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

struct Workload {
  const std::vector<serve::Request>& probes;
  const std::vector<serve::Response>& expected;
  std::atomic<std::uint64_t>& divergent;
  std::atomic<std::uint64_t>& answered;
};

Repeat run_repeat(net::Client& client, Workload& w,
                  std::size_t serial_requests, std::size_t batched_requests) {
  Repeat out;
  // Phase 1 — serial RPC latency.
  std::vector<std::vector<double>> latencies(kClientThreads);
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(kClientThreads);
    for (std::size_t t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = next.fetch_add(1); i < serial_requests;
             i = next.fetch_add(1)) {
          const std::size_t p = i % w.probes.size();
          const auto t0 = std::chrono::steady_clock::now();
          const serve::Response r = client.predict(w.probes[p]);
          latencies[t].push_back(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
          w.answered.fetch_add(1);
          if (!bit_identical(r, w.expected[p])) w.divergent.fetch_add(1);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  std::vector<double> all;
  for (const std::vector<double>& part : latencies) {
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end());
  out.p50_us = percentile(all, 0.50) * 1e6;
  out.p95_us = percentile(all, 0.95) * 1e6;
  out.p99_us = percentile(all, 0.99) * 1e6;

  // Phase 2 — pipelined throughput.
  std::atomic<std::size_t> next{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kClientThreads);
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<serve::Request> batch(kBatch);
      std::vector<std::size_t> indices(kBatch);
      for (std::size_t base = next.fetch_add(kBatch); base < batched_requests;
           base = next.fetch_add(kBatch)) {
        const std::size_t n = std::min(kBatch, batched_requests - base);
        batch.resize(n);
        indices.resize(n);
        for (std::size_t j = 0; j < n; ++j) {
          indices[j] = (base + j) % w.probes.size();
          batch[j] = w.probes[indices[j]];
        }
        const std::vector<serve::Response> replies =
            client.predict_batch(batch);
        w.answered.fetch_add(replies.size());
        for (std::size_t j = 0; j < replies.size(); ++j) {
          if (!bit_identical(replies[j], w.expected[indices[j]])) {
            w.divergent.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.rps = static_cast<double>(batched_requests) / elapsed;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  // Per repeat.
  const std::size_t serial_requests = smoke ? 300 : 8000;
  const std::size_t batched_requests = smoke ? 1600 : 64000;

  bench::print_banner(
      "net throughput",
      "Loopback RPC load against the wire-exposed prediction server; every "
      "response checked bit-identical to the in-process answer.");

  const bench::BoardModels& bm = bench::board_models(kBoard);
  serve::PredictionServer backend;
  backend.load_models(bm.power, bm.perf);

  // The request working set and its in-process ground truth.  Submitting
  // the probes first also warms the prediction cache, so the timed wire
  // runs measure RPC-layer cost, not model evaluation.
  std::vector<serve::Request> probes;
  std::vector<serve::Response> expected;
  for (std::size_t i = 0; i < bm.dataset.samples.size(); ++i) {
    serve::Request r;
    r.kind = serve::RequestKind::Predict;
    r.gpu = kBoard;
    r.counters = bm.dataset.samples[i].counters;
    probes.push_back(r);
    expected.push_back(backend.submit(probes.back()).get());
  }

  net::Server server(backend);
  net::ClientOptions copt;
  copt.port = server.port();
  copt.pool_size = kClientThreads;
  net::Client client(copt);

  std::cout << probes.size() << " cached phases, " << kClientThreads
            << " closed-loop client threads on 127.0.0.1:" << server.port()
            << ", " << kRepeats << " repeats\n";

  std::atomic<std::uint64_t> divergent{0};
  std::atomic<std::uint64_t> answered{0};
  Workload workload{probes, expected, divergent, answered};
  std::vector<double> rps, p50, p95, p99;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    const Repeat one =
        run_repeat(client, workload, serial_requests, batched_requests);
    rps.push_back(one.rps);
    p50.push_back(one.p50_us);
    p95.push_back(one.p95_us);
    p99.push_back(one.p99_us);
  }
  const Spread rps_s = spread(rps);
  const Spread p50_s = spread(p50);
  const Spread p95_s = spread(p95);
  const Spread p99_s = spread(p99);

  server.stop();
  const net::ServerStats ns = server.stats();
  backend.shutdown();

  AsciiTable table({"metric", "median", "min", "max"});
  const auto row = [&](const char* name, const Spread& s, int digits) {
    table.add_row({name, format_double(s.median, digits),
                   format_double(s.min, digits), format_double(s.max, digits)});
  };
  row("pipelined predictions/s", rps_s, 0);
  row("serial p50 us", p50_s, 1);
  row("serial p95 us", p95_s, 1);
  row("serial p99 us", p99_s, 1);
  table.print(std::cout);
  std::cout << "divergent " << divergent.load() << ", protocol errors "
            << ns.protocol_errors << "; " << ns.frames_received
            << " frames in / " << ns.frames_sent << " out, "
            << ns.bytes_received + ns.bytes_sent
            << " bytes on the wire (target >= 10000 predictions/s over "
            << "loopback)\n";

  const bool ok =
      divergent.load() == 0 && ns.protocol_errors == 0 &&
      answered.load() == kRepeats * (serial_requests + batched_requests);
  {
    std::ofstream json("BENCH_net.json");
    json << "{\n  \"schema\": \"gppm.bench_net.v3\",\n";
    gppm::bench::json_env_stamp(json, smoke);
    // Trajectory anchors.  pre_simd: one full-scale run recorded
    // immediately before the slice-by-8 CRC + zero-copy read path.
    // pre_inline: this bench (median, min, max of 5 repeats) on the
    // server whose connections handed each request to a serve worker and
    // a writer thread, before replies were answered on the reader.
    json << "  \"baseline_pre_simd\": {\n"
         << "    \"rps\": 14527.7,\n"
         << "    \"p50_us\": 340.57,\n"
         << "    \"p95_us\": 689.25,\n"
         << "    \"p99_us\": 2117.29\n  },\n"
         << "  \"baseline_pre_inline\": {\n"
         << "    \"rps\": {\"median\": 69024.2, \"min\": 52878.6, "
            "\"max\": 71136.0},\n"
         << "    \"p50_us\": {\"median\": 94.12, \"min\": 88.41, "
            "\"max\": 134.38},\n"
         << "    \"p95_us\": {\"median\": 164.66, \"min\": 153.73, "
            "\"max\": 288.85},\n"
         << "    \"p99_us\": {\"median\": 247.94, \"min\": 198.95, "
            "\"max\": 446.86}\n  },\n"
         << "  \"repeats\": " << kRepeats << ",\n"
         << "  \"serial_requests\": " << serial_requests << ",\n"
         << "  \"batched_requests\": " << batched_requests << ",\n"
         << "  \"batch\": " << kBatch << ",\n"
         << "  \"client_threads\": " << kClientThreads << ",\n";
    json_spread(json, "rps", rps_s, 1);
    json_spread(json, "p50_us", p50_s, 2);
    json_spread(json, "p95_us", p95_s, 2);
    json_spread(json, "p99_us", p99_s, 2);
    json << "  \"protocol_errors\": " << ns.protocol_errors << ",\n"
         << "  \"divergent\": " << divergent.load() << ",\n"
         << "  \"bit_identical\": " << (ok ? "true" : "false") << "\n"
         << "}\n";
  }
  std::cout << "wrote BENCH_net.json\n";
  return ok ? 0 : 1;
}
