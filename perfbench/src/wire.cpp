// The request path over loopback: rig set-up and warm-up, the open-loop
// light/heavy phases, the closed-loop sat phase, and the post-run check of
// every answer against the fitted models.
#include <algorithm>
#include <ctime>
#include <future>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

namespace {

// Enough to start every thread and connection and warm the allocator.  The
// warm-up counts in setup_s, and its wall time swings with the host's
// thread scheduling (up to 3x at 8,192 requests), so it is kept short.
constexpr std::size_t kWarmupRequests = 1024;

void warm_up(Rig& rig) {
  std::vector<serve::Request> batch;
  auto flush = [&] {
    if (batch.empty()) return;
    for (const serve::Response& r : rig.client->predict_batch(batch)) {
      if (!r.ok()) {
        throw std::runtime_error("warm-up request failed: " + r.error);
      }
    }
    batch.clear();
  };
  auto add = [&](serve::Request request) {
    batch.push_back(std::move(request));
    if (batch.size() == kSatBatch) flush();
  };
  if (rig.traffic == Traffic::Mixed) {
    // One Optimize per phase evaluates both models at every configurable
    // pair, which fills the cache with every recurring Predict key.
    for (const Phase& phase : rig.corpus.phases) {
      add(make_request(phase, serve::RequestKind::Optimize, sim::kDefaultPair,
                       1.0));
    }
  }
  const RequestStream requests = rig.stream(kWarmupStream);
  for (std::uint64_t i = 0; i < kWarmupRequests; ++i) add(requests.request(i));
  flush();
}

/// CPU seconds used by every thread of this process so far.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void count(PhaseLog& log) {
  for (const std::vector<std::uint64_t>& records : log.records) {
    log.attempted += records.size();
    log.failed += static_cast<std::uint64_t>(
        std::count(records.begin(), records.end(), std::uint64_t{0}));
  }
}

}  // namespace

std::unique_ptr<Rig> set_up(Traffic traffic, std::uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  rig->traffic = traffic;
  rig->seed = seed;
  rig->models = fit_all(seed);
  rig->corpus = make_corpus(rig->models->data);
  serve::ServerOptions options;
  options.worker_threads = 2;
  rig->backend = std::make_unique<serve::PredictionServer>(options);
  for (std::size_t b = 0; b < rig->models->data.size(); ++b) {
    rig->backend->load_models(rig->models->power[b], rig->models->perf[b]);
  }
  rig->server = std::make_unique<net::Server>(*rig->backend);
  net::ClientOptions client;
  client.port = rig->server->port();
  client.pool_size = kLoadThreads;
  rig->client = std::make_unique<net::Client>(client);
  warm_up(*rig);
  return rig;
}

OpenLoopPhase open_loop_phase(Rig& rig, std::uint64_t stream, double rate,
                              double seconds, WireSpans& spans) {
  const RequestStream requests = rig.stream(stream);
  OpenLoopPhase phase;
  phase.log.stream = stream;
  phase.log.records.resize(kLoadThreads);
  std::vector<serve::Request> next(kLoadThreads);
  std::vector<WireSpans> thread_spans(kLoadThreads);
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    phase.log.records[t].reserve(
        static_cast<std::size_t>(rate * seconds / kLoadThreads * 1.1) + 16);
  }

  const auto samples = run_open_loop(
      rate, seconds, kLoadThreads, mix64(rig.seed ^ stream),
      [&](std::size_t t, std::uint64_t index) {
        next[t] = requests.request(index);
      },
      [&](std::size_t t) {
        std::uint64_t record = 0;
        try {
          const Clock::time_point sent = Clock::now();
          const serve::Response response = rig.client->predict(next[t]);
          const double rtt = seconds_between(sent, Clock::now());
          const double server = response.latency.as_seconds();
          thread_spans[t].rtt_us.push_back(rtt * 1e6);
          thread_spans[t].server_us.push_back(server * 1e6);
          thread_spans[t].kinds.push_back(next[t].kind);
          if (server > rtt) ++thread_spans[t].server_exceeds_rtt;
          record = answer_record(response);
        } catch (const std::exception&) {
          record = 0;
        }
        phase.log.records[t].push_back(record);
      });

  count(phase.log);
  for (const std::vector<OpenLoopSample>& mine : samples) {
    for (const OpenLoopSample& s : mine) {
      phase.latency_us.push_back(s.latency * 1e6);
      phase.late_us.push_back(s.late * 1e6);
    }
  }
  for (const WireSpans& mine : thread_spans) {
    spans.rtt_us.insert(spans.rtt_us.end(), mine.rtt_us.begin(),
                        mine.rtt_us.end());
    spans.server_us.insert(spans.server_us.end(), mine.server_us.begin(),
                           mine.server_us.end());
    spans.kinds.insert(spans.kinds.end(), mine.kinds.begin(),
                       mine.kinds.end());
    spans.server_exceeds_rtt += mine.server_exceeds_rtt;
  }
  return phase;
}

SatPhase sat_phase(Rig& rig, std::uint64_t stream, double seconds,
                   bool traced) {
  const RequestStream requests = rig.stream(stream);
  SatPhase phase;
  phase.log.stream = stream;
  phase.log.batch = kSatBatch;
  phase.log.records.resize(kLoadThreads);
  // Traced: a (build start, send, reply) span per batch, kept in memory.
  std::vector<std::vector<Clock::time_point>> batch_spans(kLoadThreads);
  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::uint64_t>& records = phase.log.records[t];
      std::vector<serve::Request> batch;
      batch.reserve(kSatBatch);
      for (std::uint64_t b = 0; Clock::now() < end; ++b) {
        const Clock::time_point built = Clock::now();
        batch.clear();
        for (std::size_t j = 0; j < kSatBatch; ++j) {
          batch.push_back(
              requests.request((b * kLoadThreads + t) * kSatBatch + j));
        }
        const Clock::time_point sent = Clock::now();
        try {
          const std::vector<serve::Response> replies =
              rig.client->predict_batch(batch);
          for (std::size_t j = 0; j < kSatBatch; ++j) {
            records.push_back(j < replies.size() ? answer_record(replies[j])
                                                 : 0);
          }
        } catch (const std::exception&) {
          records.insert(records.end(), kSatBatch, 0);
        }
        if (traced) {
          batch_spans[t].insert(batch_spans[t].end(),
                                {built, sent, Clock::now()});
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed = seconds_between(start, Clock::now());
  const double cpu = process_cpu_seconds() - cpu_start;
  count(phase.log);
  double building = 0.0, total = 0.0;
  for (const std::vector<Clock::time_point>& spans : batch_spans) {
    for (std::size_t i = 0; i + 2 < spans.size(); i += 3) {
      building += seconds_between(spans[i], spans[i + 1]);
      total += seconds_between(spans[i], spans[i + 2]);
    }
  }
  if (total > 0.0) phase.build_share = building / total;
  const double ok = static_cast<double>(phase.log.attempted - phase.log.failed);
  phase.ok_per_second = ok / elapsed;
  phase.cpu_us_per_ok = cpu * 1e6 / std::max(ok, 1.0);
  return phase;
}

std::uint64_t verify_phase(const Rig& rig, const PhaseLog& log) {
  const RequestStream requests = rig.stream(log.stream);
  const std::size_t threads = log.records.size();
  // One checker per load thread, each over that thread's records.
  std::vector<std::future<std::uint64_t>> checkers;
  for (std::size_t t = 0; t < threads; ++t) {
    checkers.push_back(std::async(std::launch::async, [&, t] {
      const std::vector<std::uint64_t>& records = log.records[t];
      std::uint64_t wrong = 0;
      for (std::size_t p = 0; p < records.size(); ++p) {
        if (records[p] == 0) continue;  // already counted as failed
        const std::uint64_t index =
            ((p / log.batch) * threads + t) * log.batch + p % log.batch;
        const serve::Request request = requests.request(index);
        if (request.kind == serve::RequestKind::Govern) {
          // Governor answers depend on hysteresis state: check only that
          // the pick is a configurable pair of the board.
          const auto& pairs = rig.corpus.pairs[board_slot(request.gpu)];
          if (std::find(pairs.begin(), pairs.end(),
                        record_pair(records[p])) == pairs.end()) {
            ++wrong;
          }
        } else if (expected_record(*rig.models, request) != records[p]) {
          ++wrong;
        }
      }
      return wrong;
    }));
  }
  std::uint64_t wrong = 0;
  for (std::future<std::uint64_t>& checker : checkers) wrong += checker.get();
  return wrong;
}

}  // namespace perfbench
