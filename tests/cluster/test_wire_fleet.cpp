// The wire fleet: a 2-node LocalFleet with FleetOptions::wire, so the
// router reaches each node through a RemoteBackend (pooled net::Client)
// and the node's net::Server.  Every routed answer must be bit-identical
// to a single in-process server's, through a node kill (failover) and a
// restart on the same port (re-adoption).
#include <gtest/gtest.h>

#include <chrono>
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

constexpr std::size_t kSamples = 16;

serve::Request predict_request(std::size_t sample_index) {
  serve::Request r;
  r.kind = serve::RequestKind::Predict;
  r.gpu = sim::GpuModel::GTX460;
  r.counters = dataset().samples[sample_index].counters;
  return r;
}

bool same_answer(const serve::Response& a, const serve::Response& b) {
  return a.status == b.status && a.pair == b.pair &&
         a.power_watts == b.power_watts && a.time_seconds == b.time_seconds &&
         a.energy_joules == b.energy_joules;
}

/// Routed requests for every sample that did not come back bit-identical.
std::size_t divergent(LocalFleet& fleet,
                      const std::vector<serve::Response>& truth) {
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const serve::Response r = fleet.router().predict(predict_request(i));
    if (!r.ok() || !same_answer(r, truth[i])) ++wrong;
  }
  return wrong;
}

/// Requests that did not land on their primary: failed flights plus
/// breaker refusals.
std::uint64_t detours(const RouterStats& s) {
  return s.failovers + s.breaker_rejections;
}

TEST(WireFleet, RoutesFailsOverAndReadoptsBitIdentical) {
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
  fopt.backends = 2;
  fopt.wire = true;
  RouterOptions ropt;
  ropt.replicas = 2;
  // Without hedging every request that leaves its primary is a failover
  // or a breaker refusal, so the detour count below says where requests
  // went (a hedge could win against a slow live primary too).
  ropt.hedging = false;
  ropt.health_interval = Duration::milliseconds(5.0);
  ropt.breaker.cooldown = std::chrono::milliseconds(20);
  LocalFleet fleet(power_model(), perf_model(), fopt, ropt);
  ASSERT_NE(fleet.port(0), 0u);
  ASSERT_NE(fleet.port(1), 0u);

  EXPECT_EQ(divergent(fleet, truth), 0u);
  const std::uint64_t healthy = detours(fleet.router().stats());

  // Node 0 dies: its keys fail over to node 1, still bit-identical.
  const std::uint16_t port = fleet.port(0);
  fleet.kill(0);
  EXPECT_FALSE(fleet.alive(0));
  EXPECT_EQ(divergent(fleet, truth), 0u);
  const std::uint64_t killed = detours(fleet.router().stats());
  EXPECT_GT(killed, healthy) << "node 0 owned none of the sampled keys";

  // Node 0 comes back on the same port; the health loop closes its
  // breaker and its keys land on it again, with no detour.
  fleet.restart(0);
  EXPECT_TRUE(fleet.alive(0));
  EXPECT_EQ(fleet.port(0), port);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.router().breaker_state(fleet.name(0)) != BreakerState::Closed) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "node 0 was never re-adopted";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fleet.probe(0));
  const std::uint64_t before = detours(fleet.router().stats());
  EXPECT_EQ(divergent(fleet, truth), 0u);
  EXPECT_EQ(detours(fleet.router().stats()), before);
}

}  // namespace
}  // namespace gppm::cluster
