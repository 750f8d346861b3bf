// Loopback client <-> server integration: the wire path must be
// indistinguishable from in-process serving.  Every server here binds port
// 0 (the kernel picks a free ephemeral port), so suites run in parallel
// without port collisions.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/serialization.hpp"
#include "net/client.hpp"

namespace gppm::net {
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

serve::Request predict_request(const profiler::ProfileResult& counters,
                               sim::FrequencyPair pair = sim::kDefaultPair) {
  serve::Request r;
  r.kind = serve::RequestKind::Predict;
  r.gpu = sim::GpuModel::GTX460;
  r.counters = counters;
  r.pair = pair;
  return r;
}

/// Backend + wire server + client on an ephemeral loopback port.
struct Rig {
  explicit Rig(serve::ServerOptions backend_options = {},
               ServerOptions server_options = {},
               std::size_t client_pool = 1)
      : backend(backend_options), server(backend, server_options) {
    backend.load_models(power_model(), perf_model());
    ClientOptions copt;
    copt.port = server.port();
    copt.pool_size = client_pool;
    client = std::make_unique<Client>(copt);
  }
  serve::PredictionServer backend;
  Server server;
  std::unique_ptr<Client> client;
};

TEST(NetServer, BindsEphemeralPort) {
  serve::PredictionServer backend;
  Server server(backend);
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
}

TEST(NetServer, PingAndInfo) {
  Rig rig;
  rig.client->ping();
  const ServerInfo info = rig.client->info();
  EXPECT_EQ(info.protocol_version, kProtocolVersion);
  ASSERT_EQ(info.boards.size(), 1u);
  EXPECT_EQ(info.boards[0].gpu, sim::GpuModel::GTX460);
  EXPECT_EQ(info.boards[0].power_fingerprint,
            core::model_fingerprint(power_model()));
  EXPECT_EQ(info.boards[0].perf_fingerprint,
            core::model_fingerprint(perf_model()));
}

TEST(NetServer, WirePredictionsBitIdenticalToInProcess) {
  Rig rig;
  const std::vector<sim::FrequencyPair> pairs = {
      {sim::ClockLevel::Low, sim::ClockLevel::Low},
      {sim::ClockLevel::Medium, sim::ClockLevel::High},
      {sim::ClockLevel::High, sim::ClockLevel::High},
  };
  for (std::size_t i = 0; i < 8; ++i) {
    const core::Sample& sample = dataset().samples[i * 4];
    for (const sim::FrequencyPair pair : pairs) {
      const serve::Response wire =
          rig.client->predict(predict_request(sample.counters, pair));
      const serve::Response local =
          rig.backend.submit(predict_request(sample.counters, pair)).get();
      ASSERT_EQ(wire.status, serve::ResponseStatus::Ok) << wire.error;
      // Bit-identical, not approximately equal: doubles cross the wire as
      // IEEE-754 bit patterns and both answers come from the same models.
      EXPECT_EQ(wire.power_watts, local.power_watts);
      EXPECT_EQ(wire.time_seconds, local.time_seconds);
      EXPECT_EQ(wire.energy_joules, local.energy_joules);
      EXPECT_EQ(wire.pair, pair);
      EXPECT_EQ(wire.kind, serve::RequestKind::Predict);
    }
  }
}

TEST(NetServer, PipelinedBatchBitIdenticalToInProcess) {
  Rig rig;
  std::vector<serve::Request> batch;
  std::vector<serve::Response> expected;
  for (std::size_t i = 0; i < 40; ++i) {
    const core::Sample& sample = dataset().samples[i % 12];
    batch.push_back(predict_request(sample.counters));
    expected.push_back(rig.backend.submit(batch.back()).get());
  }
  const std::vector<serve::Response> replies =
      rig.client->predict_batch(batch);
  ASSERT_EQ(replies.size(), batch.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].status, serve::ResponseStatus::Ok)
        << i << ": " << replies[i].error;
    // In request order, bit-identical — the pipelined path must be
    // indistinguishable from 40 serial RPCs.
    EXPECT_EQ(replies[i].power_watts, expected[i].power_watts) << i;
    EXPECT_EQ(replies[i].time_seconds, expected[i].time_seconds) << i;
    EXPECT_EQ(replies[i].energy_joules, expected[i].energy_joules) << i;
  }
  EXPECT_TRUE(rig.client->predict_batch({}).empty());
}

TEST(NetServer, OptimizeOverTheWireMatchesInProcess) {
  Rig rig;
  const core::Sample& sample = dataset().samples.front();
  serve::Request request;
  request.kind = serve::RequestKind::Optimize;
  request.gpu = sim::GpuModel::GTX460;
  request.counters = sample.counters;
  const serve::Response wire = rig.client->predict(request);
  const serve::Response local = rig.backend.submit(request).get();
  ASSERT_TRUE(wire.ok()) << wire.error;
  EXPECT_EQ(wire.pair, local.pair);
  EXPECT_EQ(wire.power_watts, local.power_watts);
  EXPECT_EQ(wire.time_seconds, local.time_seconds);
  EXPECT_EQ(wire.energy_joules, local.energy_joules);
}

TEST(NetServer, GovernOverTheWire) {
  Rig rig;
  serve::Request request;
  request.kind = serve::RequestKind::Govern;
  request.gpu = sim::GpuModel::GTX460;
  request.counters = dataset().samples.front().counters;
  request.policy = core::GovernorPolicy::MinimumEnergy;
  const serve::Response r = rig.client->predict(request);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.kind, serve::RequestKind::Govern);
  EXPECT_GT(r.power_watts, 0.0);
}

TEST(NetServer, UnloadedBoardAnswersTypedStatusNotError) {
  Rig rig;
  serve::Request request = predict_request(dataset().samples[0].counters);
  request.gpu = sim::GpuModel::GTX680;
  const serve::Response r = rig.client->predict(request);
  EXPECT_EQ(r.status, serve::ResponseStatus::NoModels);
  EXPECT_NE(r.error.find("no models loaded"), std::string::npos) << r.error;
}

TEST(NetServer, DeadlinePropagatesThroughFrameHeader) {
  // One worker chewing through slow uncached Optimize requests guarantees
  // a later 1 us-deadline request out-waits its deadline in the queue.
  serve::ServerOptions bopt;
  bopt.worker_threads = 1;
  bopt.cache_capacity = 0;  // every Optimize evaluates all pairs for real
  Rig rig(bopt);
  std::vector<std::thread> floods;
  std::atomic<bool> flood_ok{true};
  for (int t = 0; t < 2; ++t) {
    floods.emplace_back([&rig, &flood_ok] {
      ClientOptions copt;
      copt.port = rig.server.port();
      Client flooder(copt);
      serve::Request slow;
      slow.kind = serve::RequestKind::Optimize;
      slow.gpu = sim::GpuModel::GTX460;
      slow.counters = dataset().samples.front().counters;
      for (int i = 0; i < 20; ++i) {
        if (!flooder.predict(slow).ok()) flood_ok = false;
      }
    });
  }
  serve::Request urgent = predict_request(dataset().samples[1].counters);
  urgent.deadline = Duration::microseconds(1.0);
  int expired = 0;
  for (int i = 0; i < 20; ++i) {
    const serve::Response r = rig.client->predict(urgent);
    if (r.status == serve::ResponseStatus::DeadlineExceeded) ++expired;
  }
  for (std::thread& t : floods) t.join();
  EXPECT_TRUE(flood_ok.load());
  // Under a flooded single worker, queue wait >> 1 us essentially always.
  EXPECT_GT(expired, 0);
}

TEST(NetServer, ConcurrentClientsAllServedCorrectly) {
  Rig rig({}, {}, /*client_pool=*/4);
  const core::Sample& sample = dataset().samples.front();
  const serve::Response local =
      rig.backend.submit(predict_request(sample.counters)).get();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const serve::Response r =
            rig.client->predict(predict_request(sample.counters));
        if (!r.ok() || r.power_watts != local.power_watts ||
            r.time_seconds != local.time_seconds) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(rig.client->stats().rpcs, 200u);
  const ServerStats stats = rig.server.stats();
  EXPECT_EQ(stats.requests_bridged, 200u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(NetServer, GarbageBytesGetTypedErrorReplyThenDisconnect) {
  Rig rig;
  Socket raw = Socket::connect("127.0.0.1", rig.server.port());
  const std::uint8_t garbage[] = "this is definitely not a gppm frame";
  raw.write_all(garbage, sizeof garbage);

  FrameDecoder decoder;
  std::uint8_t buf[4096];
  std::optional<Frame> reply;
  while (!reply.has_value()) {
    ASSERT_TRUE(raw.wait_readable(5000));
    const std::size_t n = raw.read_some(buf, sizeof buf);
    ASSERT_GT(n, 0u) << "peer closed before sending an ErrorReply";
    decoder.feed(buf, n);
    reply = decoder.next();
  }
  EXPECT_EQ(reply->header.type, FrameType::ErrorReply);
  const WireError error = decode_wire_error(reply->payload);
  EXPECT_EQ(error.code, WireErrorCode::Malformed);
  // Then EOF: the server dropped us.
  while (true) {
    ASSERT_TRUE(raw.wait_readable(5000));
    const std::size_t n = raw.read_some(buf, sizeof buf);
    if (n == 0) break;
  }
  // Poll until the server's reader thread has accounted the error.
  for (int i = 0; i < 100 && rig.server.stats().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rig.server.stats().protocol_errors, 1u);
  // The healthy client still works: protocol errors are per-connection.
  EXPECT_TRUE(
      rig.client->predict(predict_request(dataset().samples[0].counters))
          .ok());
}

TEST(NetServer, V3StampedPredictRequestGetsMalformedThenDisconnect) {
  // A v3 peer's PredictRequest carries the old named-only payload; this
  // build refuses it by frame version (typed Malformed reply, then EOF)
  // instead of decoding it against the v4 layout.
  Rig rig;
  Socket raw = Socket::connect("127.0.0.1", rig.server.port());
  std::vector<std::uint8_t> frame = encode_frame(
      FrameType::PredictRequest,
      encode_predict_request(1, predict_request(dataset().samples[0].counters)));
  frame[4] = 3;
  raw.write_all(frame.data(), frame.size());

  FrameDecoder decoder;
  std::uint8_t buf[4096];
  std::optional<Frame> reply;
  while (!reply.has_value()) {
    ASSERT_TRUE(raw.wait_readable(5000));
    const std::size_t n = raw.read_some(buf, sizeof buf);
    ASSERT_GT(n, 0u) << "peer closed before sending an ErrorReply";
    decoder.feed(buf, n);
    reply = decoder.next();
  }
  EXPECT_EQ(reply->header.type, FrameType::ErrorReply);
  EXPECT_EQ(decode_wire_error(reply->payload).code, WireErrorCode::Malformed);
  while (true) {
    ASSERT_TRUE(raw.wait_readable(5000));
    if (raw.read_some(buf, sizeof buf) == 0) break;  // dropped
  }
  EXPECT_EQ(rig.server.stats().requests_bridged, 0u);
}

TEST(NetServer, OversizedFrameDeclarationIsRejected) {
  ServerOptions sopt;
  sopt.max_frame_payload = 1024;
  Rig rig({}, sopt);
  Socket raw = Socket::connect("127.0.0.1", rig.server.port());
  // A syntactically valid header announcing 1 MiB on a 1 KiB-cap server.
  const std::vector<std::uint8_t> frame =
      encode_frame(FrameType::Ping, std::vector<std::uint8_t>(1 << 20, 7));
  raw.write_all(frame.data(), kFrameHeaderSize);

  FrameDecoder decoder;
  std::uint8_t buf[4096];
  std::optional<Frame> reply;
  while (!reply.has_value()) {
    ASSERT_TRUE(raw.wait_readable(5000));
    const std::size_t n = raw.read_some(buf, sizeof buf);
    ASSERT_GT(n, 0u);
    decoder.feed(buf, n);
    reply = decoder.next();
  }
  EXPECT_EQ(reply->header.type, FrameType::ErrorReply);
  EXPECT_EQ(decode_wire_error(reply->payload).code, WireErrorCode::Malformed);
}

TEST(NetServer, StopIsIdempotentAndRefusesNewWork) {
  Rig rig;
  EXPECT_TRUE(
      rig.client->predict(predict_request(dataset().samples[0].counters))
          .ok());
  rig.server.stop();
  rig.server.stop();
  EXPECT_FALSE(rig.server.running());
  // New RPCs fail with a typed transport error once retries are exhausted.
  ClientOptions copt;
  copt.port = rig.server.port();
  copt.retry.max_attempts = 2;
  copt.retry.initial_backoff = Duration::milliseconds(1.0);
  Client late(copt);
  EXPECT_THROW(late.ping(), ConnectionError);
}

TEST(NetServer, UnexpectedFrameTypeKillsOnlyThatConnection) {
  Rig rig;
  const serve::Request request = predict_request(dataset().samples[0].counters);
  EXPECT_TRUE(rig.client->predict(request).ok());
  // A client-bound frame type arriving at the server is a protocol
  // violation: that connection is dropped, every other one is untouched.
  Socket raw = Socket::connect("127.0.0.1", rig.server.port());
  const std::vector<std::uint8_t> bad =
      encode_frame(FrameType::Pong, encode_ping(1));  // server-invalid type
  raw.write_all(bad.data(), bad.size());
  std::uint8_t buf[1024];
  while (true) {
    if (!raw.wait_readable(5000)) break;
    if (raw.read_some(buf, sizeof buf) == 0) break;  // dropped, as expected
  }
  // The pooled client connection was untouched throughout.
  EXPECT_TRUE(rig.client->predict(request).ok());
  EXPECT_GE(rig.server.stats().protocol_errors, 1u);
}

TEST(NetServer, ConnectionLimitAnswersTypedRefusal) {
  ServerOptions sopt;
  sopt.max_connections = 1;
  Rig rig({}, sopt);
  rig.client->ping();  // occupies the single slot

  Socket second = Socket::connect("127.0.0.1", rig.server.port());
  FrameDecoder decoder;
  std::uint8_t buf[1024];
  std::optional<Frame> reply;
  while (!reply.has_value()) {
    ASSERT_TRUE(second.wait_readable(5000));
    const std::size_t n = second.read_some(buf, sizeof buf);
    ASSERT_GT(n, 0u);
    decoder.feed(buf, n);
    reply = decoder.next();
  }
  EXPECT_EQ(reply->header.type, FrameType::ErrorReply);
  EXPECT_EQ(rig.server.stats().connections_refused, 1u);
  // The occupant is unaffected.
  rig.client->ping();
}

TEST(NetServer, HealthRpcObservesBackendState) {
  serve::ServerOptions bopt;
  bopt.worker_threads = 2;
  bopt.queue_capacity = 128;
  Rig rig(bopt);
  const HealthStatus h = rig.client->health();
  EXPECT_EQ(h.protocol_version, kProtocolVersion);
  EXPECT_TRUE(h.accepting);
  EXPECT_EQ(h.boards, 1u);
  EXPECT_EQ(h.queue_capacity, 128u);
  EXPECT_EQ(h.workers, 2u);
  // Health is answered inline by the transport, never bridged through the
  // prediction queue.
  EXPECT_EQ(rig.server.stats().requests_bridged, 0u);

  rig.backend.shutdown();
  EXPECT_FALSE(rig.client->health().accepting);
}

TEST(NetServer, ClientPoolReadoptsRestartedServer) {
  // S2 regression: a pooled connection must notice its server died and
  // was replaced (same port, new process in spirit) and silently redial
  // instead of failing the next RPC on a dead FD.
  Rig rig;
  const serve::Request request = predict_request(dataset().samples[0].counters);
  const serve::Response before = rig.client->predict(request);
  ASSERT_TRUE(before.ok());

  const std::uint16_t port = rig.server.port();
  rig.server.stop();
  ServerOptions sopt;
  sopt.port = port;  // SO_REUSEADDR: the replacement binds the same port
  Server reborn(rig.backend, sopt);
  ASSERT_EQ(reborn.port(), port);

  const serve::Response after = rig.client->predict(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.power_watts, before.power_watts);
  const ClientStats cs = rig.client->stats();
  // The dead pooled socket was evicted or redialed, never reused broken.
  EXPECT_GE(cs.stale_evictions + cs.reconnects + cs.transport_retries, 1u);
}

TEST(NetServer, ClientIdleTimeoutEvictsPooledConnection) {
  Rig rig;
  ClientOptions copt;
  copt.port = rig.server.port();
  copt.idle_timeout_ms = 1;
  Client impatient(copt);
  impatient.ping();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  impatient.ping();  // pooled socket is past its idle deadline -> redial
  EXPECT_GE(impatient.stats().stale_evictions, 1u);
}

TEST(NetServer, BackendShutdownAnswersShuttingDown) {
  Rig rig;
  rig.client->ping();
  rig.backend.shutdown();
  try {
    rig.client->predict(predict_request(dataset().samples[0].counters));
    FAIL() << "expected an error after backend shutdown";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::ShuttingDown);
  } catch (const ConnectionError&) {
    // Also acceptable: the server closed the connection right after the
    // ErrorReply and the race saw EOF first, exhausting retries.
  }
}

}  // namespace
}  // namespace gppm::net
