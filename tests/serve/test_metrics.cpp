#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

namespace gppm::serve {
namespace {

TEST(ServeMetrics, RequestKindNames) {
  EXPECT_EQ(to_string(RequestKind::Predict), "predict");
  EXPECT_EQ(to_string(RequestKind::Optimize), "optimize");
  EXPECT_EQ(to_string(RequestKind::Govern), "govern");
}

TEST(ServeMetrics, LatencyBinsAreMonotone) {
  // The binning itself is obs::LogHistogram's (tests/obs); here: a
  // one-request endpoint reports its own bin, so p50 never falls below the
  // recorded latency and grows with it.
  double prev = 0.0;
  for (double s : {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0}) {
    MetricsCollector collector;
    collector.record_request(RequestKind::Predict, s);
    const double p50 = collector.snapshot().endpoints[0].p50_seconds;
    EXPECT_GT(p50, prev);
    prev = p50;
    EXPECT_LE(s, p50);
  }
}

TEST(ServeMetrics, PercentilesFromKnownDistribution) {
  MetricsCollector collector;
  // 90 requests at ~10 us, 10 at ~10 ms: p50 must sit near 10 us and p99
  // near 10 ms (within one log-bin = factor 10^0.1 resolution).
  for (int i = 0; i < 90; ++i) {
    collector.record_request(RequestKind::Predict, 10e-6);
  }
  for (int i = 0; i < 10; ++i) {
    collector.record_request(RequestKind::Predict, 10e-3);
  }
  const ServerMetrics m = collector.snapshot();
  const EndpointStats& s =
      m.endpoints[static_cast<std::size_t>(RequestKind::Predict)];
  EXPECT_EQ(s.requests, 100u);
  EXPECT_NEAR(s.p50_seconds, 10e-6, 10e-6);   // within the bin
  EXPECT_NEAR(s.p99_seconds, 10e-3, 10e-3);
  EXPECT_GT(s.p95_seconds, s.p50_seconds);
  EXPECT_NEAR(s.mean_latency_seconds, 0.9 * 10e-6 + 0.1 * 10e-3, 1e-4);
}

TEST(ServeMetrics, EndpointsAreIndependent) {
  MetricsCollector collector;
  collector.record_request(RequestKind::Predict, 1e-6);
  collector.record_request(RequestKind::Optimize, 1e-3);
  const ServerMetrics m = collector.snapshot();
  EXPECT_EQ(m.endpoints[0].requests, 1u);
  EXPECT_EQ(m.endpoints[1].requests, 1u);
  EXPECT_EQ(m.endpoints[2].requests, 0u);
  EXPECT_EQ(m.total_requests, 2u);
  EXPECT_LT(m.endpoints[0].p50_seconds, m.endpoints[1].p50_seconds);
}

TEST(ServeMetrics, BatchDistribution) {
  MetricsCollector collector;
  collector.record_batch(1);
  collector.record_batch(1);
  collector.record_batch(4);
  collector.record_batch(kMaxTrackedBatch + 10);  // clamps into last bin
  const ServerMetrics m = collector.snapshot();
  EXPECT_EQ(m.batches, 4u);
  EXPECT_EQ(m.batch_size_counts[0], 2u);
  EXPECT_EQ(m.batch_size_counts[3], 1u);
  EXPECT_EQ(m.batch_size_counts[kMaxTrackedBatch - 1], 1u);
  EXPECT_EQ(m.max_batch_size, kMaxTrackedBatch + 10);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, (1.0 + 1 + 4 + kMaxTrackedBatch + 10) / 4);
}

TEST(ServeMetrics, TableAndCsvRenderings) {
  MetricsCollector collector;
  collector.record_request(RequestKind::Predict, 5e-6);
  collector.record_batch(2);
  collector.record_rejected();
  ServerMetrics m = collector.snapshot();
  m.cache.hits = 3;
  m.cache.misses = 1;

  std::ostringstream table;
  m.print(table);
  EXPECT_NE(table.str().find("predict"), std::string::npos);
  EXPECT_NE(table.str().find("hit rate 75.0%"), std::string::npos);
  EXPECT_NE(table.str().find("1 rejected"), std::string::npos);

  std::ostringstream csv;
  m.write_csv(csv);
  EXPECT_NE(csv.str().find("requests,predict,1"), std::string::npos);
  EXPECT_NE(csv.str().find("summary,rejected_requests,1"), std::string::npos);
  EXPECT_NE(csv.str().find("batch_size,2,1"), std::string::npos);
}

TEST(ServeMetrics, TenantCountersRoundTripThroughTableAndCsv) {
  MetricsCollector collector;
  // Tenant 0 is the shared default: recording it is a no-op by contract.
  collector.record_tenant_accepted(0);
  collector.record_tenant_shed(0);
  collector.record_tenant_cache_hit(0);
  for (int i = 0; i < 3; ++i) collector.record_tenant_accepted(7);
  collector.record_tenant_shed(7);
  collector.record_tenant_accepted(9);
  for (int i = 0; i < 2; ++i) collector.record_tenant_cache_hit(9);

  const ServerMetrics m = collector.snapshot();
  ASSERT_EQ(m.tenants.size(), 2u);  // tenant 0 never appears
  EXPECT_EQ(m.tenants[0].tenant, 7u);
  EXPECT_EQ(m.tenants[0].accepted, 3u);
  EXPECT_EQ(m.tenants[0].shed, 1u);
  EXPECT_EQ(m.tenants[0].cache_hits, 0u);
  EXPECT_EQ(m.tenants[1].tenant, 9u);
  EXPECT_EQ(m.tenants[1].accepted, 1u);
  EXPECT_EQ(m.tenants[1].cache_hits, 2u);

  std::ostringstream table;
  m.print(table);
  EXPECT_NE(table.str().find("per-tenant"), std::string::npos);

  std::ostringstream csv;
  m.write_csv(csv);
  EXPECT_NE(csv.str().find("tenant_accepted,7,3"), std::string::npos);
  EXPECT_NE(csv.str().find("tenant_shed,7,1"), std::string::npos);
  EXPECT_NE(csv.str().find("tenant_cache_hits,9,2"), std::string::npos);
}

TEST(ServeMetrics, ConcurrentTenantRecordingLosesNothing) {
  MetricsCollector collector;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        collector.record_tenant_accepted(1 + (i % 2));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ServerMetrics m = collector.snapshot();
  ASSERT_EQ(m.tenants.size(), 2u);
  EXPECT_EQ(m.tenants[0].accepted + m.tenants[1].accepted,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ServeMetrics, ConcurrentRecordingLosesNothing) {
  MetricsCollector collector;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        collector.record_request(RequestKind::Govern, 1e-6);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ServerMetrics m = collector.snapshot();
  EXPECT_EQ(m.endpoints[static_cast<std::size_t>(RequestKind::Govern)].requests,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace gppm::serve
