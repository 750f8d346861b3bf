// Cluster chaos: a 3-node in-process LocalFleet under concurrent load
// while one node is killed and restarted mid-run.  The gate mirrors the
// loadgen/bench chaos profile: every request is answered (typed non-Ok
// statuses are acceptable refusals, exceptions are not), and every Ok
// answer is bit-identical to a single-node ground truth.  This file is the
// `cluster_smoke` shape — build with -DGPPM_SANITIZE=thread to run it
// under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cluster/fleet.hpp"
#include "core/dataset.hpp"

namespace gppm::cluster {
namespace {

const core::Dataset& dataset() {
  static const core::Dataset ds = core::build_dataset(sim::GpuModel::GTX460);
  return ds;
}

core::UnifiedModel power_model() {
  return core::UnifiedModel::fit(dataset(), core::TargetKind::Power);
}

core::UnifiedModel perf_model() {
  return core::UnifiedModel::fit(dataset(), core::TargetKind::ExecTime);
}

serve::Request predict_request(std::size_t sample_index) {
  serve::Request r;
  r.kind = serve::RequestKind::Predict;
  r.gpu = sim::GpuModel::GTX460;
  r.counters = dataset().samples[sample_index % dataset().samples.size()]
                   .counters;
  return r;
}

bool same_answer(const serve::Response& a, const serve::Response& b) {
  return a.status == b.status && a.pair == b.pair &&
         a.power_watts == b.power_watts && a.time_seconds == b.time_seconds &&
         a.energy_joules == b.energy_joules;
}

TEST(ClusterChaos, KillAndRestartUnderConcurrentLoadStaysBitIdentical) {
  // Ground truth from a plain single-node server on the same model pair.
  constexpr std::size_t kSamples = 8;
  std::vector<serve::Response> truth;
  {
    serve::PredictionServer reference;
    reference.load_models(power_model(), perf_model());
    for (std::size_t i = 0; i < kSamples; ++i) {
      truth.push_back(reference.submit(predict_request(i)).get());
      ASSERT_TRUE(truth.back().ok());
    }
  }

  FleetOptions fopt;
  fopt.backends = 3;
  RouterOptions ropt;
  ropt.replicas = 2;
  // Recover fast: probe often and reopen the breaker after a short
  // cooldown so the restarted node rejoins within the test's run.
  ropt.health_interval = Duration::milliseconds(5.0);
  ropt.breaker.cooldown = std::chrono::milliseconds(20);
  LocalFleet fleet(power_model(), perf_model(), fopt, ropt);
  ASSERT_EQ(fleet.size(), 3u);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> divergent{0};

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 400;
  std::vector<std::thread> load;
  for (int t = 0; t < kThreads; ++t) {
    load.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::size_t sample =
            static_cast<std::size_t>(t * kRequestsPerThread + i) % kSamples;
        const serve::Response r =
            fleet.router().predict(predict_request(sample));
        ++answered;
        if (r.ok()) {
          ++ok;
          if (!same_answer(r, truth[sample])) ++divergent;
        } else {
          ++refused;
        }
      }
    });
  }

  // The reaper: while load runs, kill one node, let traffic re-route,
  // bring it back, let it rejoin — twice, different victims.
  std::thread reaper([&] {
    for (std::size_t victim = 0; victim < 2 && !done.load(); ++victim) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      fleet.kill(victim);
      EXPECT_FALSE(fleet.alive(victim));
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      fleet.restart(victim);
      EXPECT_TRUE(fleet.alive(victim));
    }
  });

  for (std::thread& t : load) t.join();
  done.store(true);
  reaper.join();

  // Every request came back, none threw, and no answer was wrong.
  EXPECT_EQ(answered.load(),
            static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
  EXPECT_EQ(divergent.load(), 0u);
  // Replication (R=2) plus failover means a lone kill rarely refuses
  // anything, but a kill landing between route() and submit() may surface
  // as a typed InternalError; bound it rather than forbid it.
  EXPECT_GT(ok.load(), answered.load() * 9 / 10);

  const RouterStats stats = fleet.router().stats();
  EXPECT_EQ(stats.requests, answered.load());
  EXPECT_TRUE(fleet.router().health().accepting);
  EXPECT_EQ(fleet.router().health().boards, 3u);
}

TEST(ClusterChaos, FleetBridgeServesAndReportsModels) {
  // The bridge is what `gppm serve --cluster N` hands to net::Server:
  // answer() resolves through the router, models/health come from the
  // fleet.
  FleetOptions fopt;
  fopt.backends = 2;
  RouterOptions ropt;
  ropt.health_interval = Duration::seconds(0.0);
  LocalFleet fleet(power_model(), perf_model(), fopt, ropt);

  net::ServeBridge bridge = fleet.bridge();
  const serve::Request request = predict_request(0);
  serve::Response r;
  bridge.answer({&request, 1}, {&r, 1}, std::chrono::steady_clock::now());
  EXPECT_TRUE(r.ok());

  // One model pair, announced once (every node holds an identical copy).
  const auto models = bridge.loaded_models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].gpu, sim::GpuModel::GTX460);
  EXPECT_TRUE(bridge.health().accepting);

  fleet.stop();
  EXPECT_FALSE(bridge.health().accepting);
}

}  // namespace
}  // namespace gppm::cluster
