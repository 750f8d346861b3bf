#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/optimizer.hpp"
#include "serve/trace.hpp"

namespace gppm::serve {
namespace {

const core::Dataset& dataset() {
  static const core::Dataset ds = core::build_dataset(sim::GpuModel::GTX460);
  return ds;
}

const core::UnifiedModel& power_model() {
  static const core::UnifiedModel m =
      core::UnifiedModel::fit(dataset(), core::TargetKind::Power);
  return m;
}

const core::UnifiedModel& perf_model() {
  static const core::UnifiedModel m =
      core::UnifiedModel::fit(dataset(), core::TargetKind::ExecTime);
  return m;
}

Request predict_request(const profiler::ProfileResult& counters,
                        sim::FrequencyPair pair = sim::kDefaultPair) {
  Request r;
  r.kind = RequestKind::Predict;
  r.gpu = sim::GpuModel::GTX460;
  r.counters = counters;
  r.pair = pair;
  return r;
}

TEST(ServeServer, LoadValidatesModelPairing) {
  PredictionServer server;
  EXPECT_THROW(server.load_models(perf_model(), perf_model()), Error);
  EXPECT_THROW(server.load_models(power_model(), power_model()), Error);
  EXPECT_FALSE(server.has_models(sim::GpuModel::GTX460));
  server.load_models(power_model(), perf_model());
  EXPECT_TRUE(server.has_models(sim::GpuModel::GTX460));
  EXPECT_FALSE(server.has_models(sim::GpuModel::GTX680));
}

TEST(ServeServer, PredictMatchesDirectModelCall) {
  PredictionServer server;
  server.load_models(power_model(), perf_model());
  const profiler::ProfileResult& counters = dataset().samples.front().counters;
  const sim::FrequencyPair pair{sim::ClockLevel::Medium, sim::ClockLevel::Low};
  const Response r = server.submit(predict_request(counters, pair)).get();
  EXPECT_EQ(r.kind, RequestKind::Predict);
  EXPECT_EQ(r.pair, pair);
  EXPECT_DOUBLE_EQ(r.power_watts, power_model().predict(counters, pair));
  EXPECT_DOUBLE_EQ(r.time_seconds, perf_model().predict(counters, pair));
  EXPECT_DOUBLE_EQ(r.energy_joules, r.power_watts * r.time_seconds);
  EXPECT_GT(r.latency.as_seconds(), 0.0);
}

TEST(ServeServer, OptimizeMatchesOptimizer) {
  PredictionServer server;
  server.load_models(power_model(), perf_model());
  for (std::size_t i = 0; i < 5; ++i) {
    const core::Sample& sample = dataset().samples[i * 7];
    Request req;
    req.kind = RequestKind::Optimize;
    req.gpu = sim::GpuModel::GTX460;
    req.counters = sample.counters;
    const Response r = server.submit(req).get();
    EXPECT_EQ(r.pair, core::predict_min_energy_pair(power_model(), perf_model(),
                                                    sample.counters));
    // The response carries the optimizer-clamped values.
    bool found = false;
    for (const core::PairPrediction& p : core::predict_all_pairs(
             power_model(), perf_model(), sample.counters)) {
      if (!(p.pair == r.pair)) continue;
      found = true;
      EXPECT_DOUBLE_EQ(r.power_watts, p.predicted_power_watts);
      EXPECT_DOUBLE_EQ(r.time_seconds, p.predicted_time_seconds);
      EXPECT_DOUBLE_EQ(r.energy_joules, p.predicted_energy_joules);
    }
    EXPECT_TRUE(found);
  }
}

TEST(ServeServer, GovernMatchesFreshGovernor) {
  ServerOptions opt;
  PredictionServer server(opt);
  server.load_models(power_model(), perf_model());
  core::GovernorOptions gopt = opt.governor;
  gopt.policy = core::GovernorPolicy::MinimumEnergy;
  core::DvfsGovernor reference(power_model(), perf_model(), gopt);

  for (std::size_t i = 0; i < 8; ++i) {
    const core::Sample& sample = dataset().samples[i * 3];
    Request req;
    req.kind = RequestKind::Govern;
    req.gpu = sim::GpuModel::GTX460;
    req.counters = sample.counters;
    req.policy = core::GovernorPolicy::MinimumEnergy;
    const Response r = server.submit(req).get();
    // The server's governor sees the same phase sequence, so its stateful
    // hysteresis decisions must match the reference governor's.
    EXPECT_EQ(r.pair, reference.decide(sample.counters));
  }
}

TEST(ServeServer, RepeatedRequestHitsCache) {
  PredictionServer server;
  server.load_models(power_model(), perf_model());
  const Request req = predict_request(dataset().samples.front().counters);
  const Response first = server.submit(req).get();
  EXPECT_FALSE(first.cache_hit);
  const Response second = server.submit(req).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.power_watts, first.power_watts);
  const ServerMetrics m = server.metrics();
  EXPECT_GE(m.cache.hits, 2u);  // power + time predictions on the repeat
  EXPECT_GE(m.cache.entries, 2u);
}

TEST(ServeServer, DisabledCacheNeverHits) {
  ServerOptions opt;
  opt.cache_capacity = 0;
  PredictionServer server(opt);
  server.load_models(power_model(), perf_model());
  const Request req = predict_request(dataset().samples.front().counters);
  EXPECT_FALSE(server.submit(req).get().cache_hit);
  EXPECT_FALSE(server.submit(req).get().cache_hit);
  EXPECT_EQ(server.metrics().cache.hits, 0u);
}

TEST(ServeServer, DisabledCacheAnswersBitIdenticalToCachedServer) {
  // With the cache off the server skips the counter fingerprint and the
  // cache key entirely; every answer must still match the cached server's
  // bit for bit, for every request kind.
  PredictionServer cached;
  ServerOptions off;
  off.cache_capacity = 0;
  PredictionServer uncached(off);
  cached.load_models(power_model(), perf_model());
  uncached.load_models(power_model(), perf_model());
  for (int round = 0; round < 2; ++round) {  // second round hits the cache
    for (std::size_t i = 0; i < 6; ++i) {
      for (const RequestKind kind :
           {RequestKind::Predict, RequestKind::Optimize, RequestKind::Govern}) {
        Request req = predict_request(
            dataset().samples[i * 5].counters,
            {sim::ClockLevel::Medium, sim::ClockLevel::High});
        req.kind = kind;
        const Response a = cached.submit(req).get();
        const Response b = uncached.submit(req).get();
        ASSERT_TRUE(a.ok()) << a.error;
        ASSERT_TRUE(b.ok()) << b.error;
        EXPECT_EQ(a.pair, b.pair);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.power_watts),
                  std::bit_cast<std::uint64_t>(b.power_watts));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.time_seconds),
                  std::bit_cast<std::uint64_t>(b.time_seconds));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.energy_joules),
                  std::bit_cast<std::uint64_t>(b.energy_joules));
        EXPECT_FALSE(b.cache_hit);
      }
    }
  }
  EXPECT_GT(cached.metrics().cache.hit_rate(), 0.0);
  const CacheStats off_stats = uncached.metrics().cache;
  EXPECT_EQ(off_stats.hit_rate(), 0.0);
  EXPECT_EQ(off_stats.hits, 0u);
  EXPECT_EQ(off_stats.entries, 0u);
}

TEST(ServeServer, HotSwapChangesServedModel) {
  PredictionServer server;
  server.load_models(power_model(), perf_model());
  core::ModelOptions ext;
  ext.scaling = core::FeatureScaling::VoltageSquaredFrequency;
  ext.include_baseline_terms = true;
  const core::UnifiedModel extended =
      core::UnifiedModel::fit(dataset(), core::TargetKind::Power, ext);
  server.load_models(extended, perf_model());
  const profiler::ProfileResult& counters = dataset().samples.back().counters;
  const Response r = server.submit(predict_request(counters)).get();
  EXPECT_DOUBLE_EQ(r.power_watts, extended.predict(counters, sim::kDefaultPair));
}

TEST(ServeServer, UnloadedBoardGetsTypedErrorResponse) {
  PredictionServer server;
  server.load_models(power_model(), perf_model());
  Request req = predict_request(dataset().samples.front().counters);
  req.gpu = sim::GpuModel::GTX680;  // never loaded
  // Errors are responses, not exceptions: the future must resolve.
  const Response r = server.submit(req).get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, ResponseStatus::NoModels);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.kind, RequestKind::Predict);
  EXPECT_GT(r.latency.as_seconds(), 0.0);
  EXPECT_GE(server.metrics().error_responses, 1u);
}

TEST(ServeServer, ResponseStatusNamesAreStable) {
  EXPECT_EQ(to_string(ResponseStatus::Ok), "ok");
  EXPECT_EQ(to_string(ResponseStatus::NoModels), "no_models");
  EXPECT_EQ(to_string(ResponseStatus::DeadlineExceeded), "deadline_exceeded");
  EXPECT_EQ(to_string(ResponseStatus::Overloaded), "overloaded");
  EXPECT_EQ(to_string(ResponseStatus::InternalError), "internal_error");
}

TEST(ServeServer, ExpiredDeadlinesGetTypedResponses) {
  ServerOptions opt;
  opt.worker_threads = 1;
  PredictionServer server(opt);
  server.load_models(power_model(), perf_model());
  Request req = predict_request(dataset().samples.front().counters);
  req.deadline = Duration::seconds(1e-9);  // expires before any worker runs
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(server.submit(req));
  std::uint64_t expired = 0;
  for (auto& f : futures) {
    const Response r = f.get();  // always resolves, never throws
    if (r.status == ResponseStatus::DeadlineExceeded) {
      ++expired;
      EXPECT_FALSE(r.error.empty());
    } else {
      EXPECT_EQ(r.status, ResponseStatus::Ok);
    }
  }
  EXPECT_GT(expired, 0u);
  EXPECT_EQ(server.metrics().deadline_expired, expired);
}

TEST(ServeServer, GenerousDeadlinesAreServedNormally) {
  PredictionServer server;
  server.load_models(power_model(), perf_model());
  Request req = predict_request(dataset().samples.front().counters);
  req.deadline = Duration::seconds(60.0);
  const Response r = server.submit(req).get();
  EXPECT_EQ(r.status, ResponseStatus::Ok);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(server.metrics().deadline_expired, 0u);
}

TEST(ServeServer, AnswerServesABatchOnTheCallersThread) {
  ServerOptions opt;
  opt.worker_threads = 1;
  opt.max_batch = 8;  // 20 requests -> batches of 8, 8 and 4
  PredictionServer server(opt);
  server.load_models(power_model(), perf_model());
  PredictionServer reference(opt);
  reference.load_models(power_model(), perf_model());

  // All three kinds interleaved; Govern is stateful, so the reference
  // sees the requests one at a time in the same order.
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 20; ++i) {
    Request r = predict_request(dataset().samples[i].counters);
    r.kind = static_cast<RequestKind>(i % kRequestKindCount);
    requests.push_back(r);
  }
  std::vector<Response> responses(requests.size());
  server.answer(requests, responses, std::chrono::steady_clock::now());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Response want = reference.submit(requests[i]).get();
    ASSERT_TRUE(responses[i].ok()) << i << ": " << responses[i].error;
    EXPECT_EQ(responses[i].kind, requests[i].kind) << i;
    EXPECT_EQ(responses[i].pair, want.pair) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(responses[i].power_watts),
              std::bit_cast<std::uint64_t>(want.power_watts)) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(responses[i].time_seconds),
              std::bit_cast<std::uint64_t>(want.time_seconds)) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(responses[i].energy_joules),
              std::bit_cast<std::uint64_t>(want.energy_joules)) << i;
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.batches, 3u);
  EXPECT_EQ(m.batch_size_counts[7], 2u);
  EXPECT_EQ(m.batch_size_counts[3], 1u);
  EXPECT_EQ(m.queue_high_water, 0u);  // the admission queue was bypassed
}

TEST(ServeServer, AnswerAppliesQuotasDeadlinesAndTypedStatuses) {
  PredictionServer server;
  server.load_models(power_model(), perf_model());
  server.set_tenant_quota(9, 1);
  std::vector<Request> requests(5,
                                predict_request(dataset().samples[0].counters));
  requests[0].tenant = 9;  // takes tenant 9's only slot...
  requests[1].tenant = 9;  // ...so this one is shed
  requests[2].gpu = sim::GpuModel::GTX680;
  requests[3].deadline = Duration::milliseconds(1.0);
  std::vector<Response> responses(requests.size());
  // The read that carried these returned a second ago.
  const auto received =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  server.answer(requests, responses, received);
  EXPECT_EQ(responses[0].status, ResponseStatus::Ok);
  EXPECT_GE(responses[0].latency.as_seconds(), 1.0);
  EXPECT_EQ(responses[1].status, ResponseStatus::Overloaded);
  EXPECT_EQ(responses[2].status, ResponseStatus::NoModels);
  EXPECT_EQ(responses[3].status, ResponseStatus::DeadlineExceeded);
  EXPECT_EQ(responses[4].status, ResponseStatus::Ok);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].kind, RequestKind::Predict) << i;
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.shed_requests, 1u);
  EXPECT_EQ(m.deadline_expired, 1u);
  EXPECT_EQ(m.batches, 1u);

  // The slot came back: tenant 9 is served again.
  server.answer({requests.data(), 1}, {responses.data(), 1},
                std::chrono::steady_clock::now());
  EXPECT_EQ(responses[0].status, ResponseStatus::Ok);

  server.shutdown();
  EXPECT_THROW(server.answer(requests, responses,
                             std::chrono::steady_clock::now()),
               Error);
}

TEST(ServeServer, LoadSheddingAnswersOverloadedInsteadOfBlocking) {
  ServerOptions opt;
  opt.worker_threads = 1;
  opt.queue_capacity = 2;  // tiny queue, saturates immediately
  opt.load_shedding = true;
  PredictionServer server(opt);
  server.load_models(power_model(), perf_model());

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 500;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        Request req;
        req.kind = RequestKind::Optimize;  // heavier than a single predict
        req.gpu = sim::GpuModel::GTX460;
        req.counters =
            dataset().samples[(c * kPerClient + i) % dataset().samples.size()]
                .counters;
        const Response r = server.submit(req).get();
        if (r.status == ResponseStatus::Overloaded) {
          shed.fetch_add(1);
          EXPECT_FALSE(r.error.empty());
        } else {
          EXPECT_EQ(r.status, ResponseStatus::Ok);
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load() + shed.load(), kClients * kPerClient);
  EXPECT_GT(shed.load(), 0u);  // capacity 2 with one worker must shed
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.shed_requests, shed.load());
  EXPECT_EQ(m.total_requests, ok.load());  // shed requests never served
}

TEST(ServeServer, SheddingServerStillThrowsAfterShutdown) {
  ServerOptions opt;
  opt.load_shedding = true;
  PredictionServer server(opt);
  server.load_models(power_model(), perf_model());
  server.shutdown();
  EXPECT_THROW(
      server.submit(predict_request(dataset().samples.front().counters)),
      Error);
}

TEST(ServeServer, ShutdownDrainsQueuedWorkAndRejectsNew) {
  ServerOptions opt;
  opt.worker_threads = 2;
  PredictionServer server(opt);
  server.load_models(power_model(), perf_model());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(
        server.submit(predict_request(dataset().samples.front().counters)));
  }
  server.shutdown();
  EXPECT_FALSE(server.running());
  for (auto& f : futures) EXPECT_NO_THROW(f.get());  // all drained

  EXPECT_THROW(
      server.submit(predict_request(dataset().samples.front().counters)),
      Error);
  EXPECT_EQ(server.try_submit(
                predict_request(dataset().samples.front().counters)),
            std::nullopt);
  EXPECT_GE(server.metrics().rejected_requests, 2u);
  EXPECT_EQ(server.metrics().total_requests, 200u);
}

TEST(ServeServer, ShutdownIsIdempotent) {
  PredictionServer server;
  server.shutdown();
  server.shutdown();
  EXPECT_FALSE(server.running());
}

TEST(ServeServer, ConcurrentShutdownWithInFlightSubmits) {
  // Many threads hammer submit() while several others race shutdown().
  // Contract under test: every submit either yields a future that resolves
  // to a Response, or throws gppm::Error (shut down) — never a hang, a
  // broken future, or a crash; and every shutdown() returns with the
  // workers joined.
  for (int round = 0; round < 4; ++round) {
    ServerOptions opt;
    opt.worker_threads = 2;
    opt.queue_capacity = 16;
    PredictionServer server(opt);
    server.load_models(power_model(), perf_model());
    const profiler::ProfileResult& counters =
        dataset().samples.front().counters;

    std::atomic<int> answered{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 200; ++i) {
          try {
            Response r = server.submit(predict_request(counters)).get();
            EXPECT_NE(r.status, ResponseStatus::InternalError) << r.error;
            answered.fetch_add(1);
          } catch (const Error&) {
            rejected.fetch_add(1);
          }
        }
      });
    }
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 3; ++t) {
      stoppers.emplace_back([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1 + round));
        server.shutdown();
        EXPECT_FALSE(server.running());
      });
    }
    for (std::thread& t : submitters) t.join();
    for (std::thread& t : stoppers) t.join();
    server.shutdown();  // still safe after the race
    EXPECT_FALSE(server.running());
    EXPECT_EQ(answered.load() + rejected.load(), 4 * 200);
  }
}

TEST(ServeServer, ConcurrentClientsAllAnswered) {
  ServerOptions opt;
  opt.worker_threads = 4;
  opt.queue_capacity = 64;  // small queue: exercises back-pressure
  PredictionServer server(opt);
  server.load_models(power_model(), perf_model());

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 500;
  std::vector<std::thread> clients;
  std::array<std::size_t, kClients> answered{};
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const core::Sample& sample =
            dataset().samples[(c * kPerClient + i) % dataset().samples.size()];
        Request req;
        req.gpu = sim::GpuModel::GTX460;
        req.counters = sample.counters;
        switch (i % 3) {
          case 0:
            req.kind = RequestKind::Predict;
            req.pair = sample.runs[i % sample.runs.size()].pair;
            break;
          case 1: req.kind = RequestKind::Optimize; break;
          case 2:
            req.kind = RequestKind::Govern;
            req.policy = core::GovernorPolicy::MinimumEdp;
            break;
        }
        // Predict returns *raw* model output, which may be non-positive for
        // unfavorable counter/pair combos — count resolution, not value.
        const Response r = server.submit(req).get();
        if (r.latency.as_seconds() > 0.0) ++answered[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(answered[c], kPerClient);
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.total_requests, kClients * kPerClient);
  EXPECT_GE(m.batches, 1u);
  EXPECT_GT(m.cache.hit_rate(), 0.5);  // phases repeat across clients
}

TEST(ServeServer, SyntheticTraceReplayEndToEnd) {
  ServerOptions opt;
  opt.worker_threads = 2;
  PredictionServer server(opt);
  server.load_models(power_model(), perf_model());

  PhaseCorpus corpus;
  corpus.gpu = sim::GpuModel::GTX460;
  for (std::size_t i = 0; i < 8; ++i) {
    corpus.names.push_back(dataset().samples[i].benchmark);
    corpus.counters.push_back(dataset().samples[i].counters);
  }
  TraceOptions topt;
  topt.request_count = 400;
  const std::vector<Request> trace = synthetic_trace(corpus, topt);
  ASSERT_EQ(trace.size(), 400u);

  std::vector<std::future<Response>> futures;
  futures.reserve(trace.size());
  for (const Request& req : trace) futures.push_back(server.submit(req));
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.total_requests, 400u);
  std::uint64_t per_endpoint = 0;
  for (const EndpointStats& s : m.endpoints) per_endpoint += s.requests;
  EXPECT_EQ(per_endpoint, 400u);
  EXPECT_GT(m.cache.hit_rate(), 0.5);
}

}  // namespace
}  // namespace gppm::serve
