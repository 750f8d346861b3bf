#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "profiler/counters.hpp"

namespace gppm::net {
namespace {

profiler::ProfileResult sample_counters() {
  profiler::ProfileResult counters;
  counters.counters.push_back(
      {"inst_issued", profiler::EventClass::Core, 1.25e9, 3.1e9});
  counters.counters.push_back(
      {"fb_subp0_read_sectors", profiler::EventClass::Memory, 7.5e6, 0.1});
  counters.counters.push_back({"", profiler::EventClass::Core, 0.0, -0.0});
  counters.run_time = Duration::seconds(0.40625);
  return counters;
}

serve::Request sample_request() {
  serve::Request request;
  request.kind = serve::RequestKind::Optimize;
  request.gpu = sim::GpuModel::GTX480;
  request.counters = sample_counters();
  request.pair = {sim::ClockLevel::High, sim::ClockLevel::Low};
  request.policy = core::GovernorPolicy::PowerCap;
  return request;
}

TEST(NetProtocol, PredictRequestRoundTrip) {
  const serve::Request request = sample_request();
  const std::vector<std::uint8_t> payload =
      encode_predict_request(77, request);
  const DecodedRequest decoded = decode_predict_request(payload, 2500);

  EXPECT_EQ(decoded.request_id, 77u);
  EXPECT_EQ(decoded.request.kind, request.kind);
  EXPECT_EQ(decoded.request.gpu, request.gpu);
  EXPECT_EQ(decoded.request.policy, request.policy);
  EXPECT_EQ(decoded.request.pair, request.pair);
  // The deadline comes from the frame header, not the payload.
  EXPECT_DOUBLE_EQ(decoded.request.deadline.as_seconds(), 2500e-6);
  ASSERT_EQ(decoded.request.counters.counters.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const profiler::CounterReading& in = request.counters.counters[i];
    const profiler::CounterReading& out = decoded.request.counters.counters[i];
    EXPECT_EQ(out.name, in.name);
    EXPECT_EQ(out.klass, in.klass);
    EXPECT_EQ(out.total, in.total);       // bit-exact, not approximately
    EXPECT_EQ(out.per_second, in.per_second);
  }
  EXPECT_EQ(decoded.request.counters.run_time.as_seconds(),
            request.counters.run_time.as_seconds());
}

TEST(NetProtocol, TenantTrailerRoundTrip) {
  serve::Request request = sample_request();
  request.tenant = 4242;
  const std::vector<std::uint8_t> payload =
      encode_predict_request(9, request);
  const DecodedRequest decoded = decode_predict_request(payload, 0);
  EXPECT_EQ(decoded.request.tenant, 4242u);
  EXPECT_EQ(decoded.request.kind, request.kind);
  EXPECT_EQ(decoded.request.gpu, request.gpu);
}

// --- v4 golden bytes -------------------------------------------------------
// Expected payloads are spelled out byte by byte here, independent of the
// codec.  Counter values are 1.0 / 2.0 and the run time 0.5, whose IEEE-754
// patterns read directly as bytes.

const std::vector<std::uint8_t> kOneLe = {0, 0, 0, 0, 0, 0, 0xf0, 0x3f};
const std::vector<std::uint8_t> kTwoLe = {0, 0, 0, 0, 0, 0, 0x00, 0x40};
const std::vector<std::uint8_t> kHalfLe = {0, 0, 0, 0, 0, 0, 0xe0, 0x3f};

void append(std::vector<std::uint8_t>& out,
            const std::vector<std::uint8_t>& bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

/// A GTX 680 profile holding the full Kepler catalog in order, every
/// reading (total 1.0, per-second 2.0), run time 0.5 s.
profiler::ProfileResult gtx680_catalog_profile() {
  profiler::ProfileResult counters;
  for (const profiler::CounterDef& def :
       profiler::counter_catalog(sim::Architecture::Kepler)) {
    counters.counters.push_back({def.name, def.klass, 1.0, 2.0});
  }
  counters.run_time = Duration::seconds(0.5);
  return counters;
}

serve::Request gtx680_request(profiler::ProfileResult counters) {
  serve::Request request;
  request.kind = serve::RequestKind::Predict;
  request.gpu = sim::GpuModel::GTX680;
  request.policy = core::GovernorPolicy::MinimumEdp;
  request.pair = {sim::ClockLevel::Medium, sim::ClockLevel::High};
  request.counters = std::move(counters);
  return request;
}

/// id 0x2a, Predict (0), GTX680 (3), MinimumEdp (1), core Medium (1),
/// memory High (2).
const std::vector<std::uint8_t> kGtx680Head = {0x2a, 0, 0, 0, 0, 0, 0, 0,
                                               0x00, 0x03, 0x01, 0x01, 0x02};

std::vector<std::uint8_t> dense_block_108() {
  std::vector<std::uint8_t> block;
  for (int i = 0; i < 108; ++i) {
    append(block, kOneLe);
    append(block, kTwoLe);
  }
  return block;
}

TEST(NetProtocol, GoldenBytesV4FullCatalogProfile) {
  std::vector<std::uint8_t> expected = kGtx680Head;
  append(expected, {0, 0, 0, 0});   // tenant 0
  append(expected, {0x01});         // dense block follows
  append(expected, dense_block_108());
  append(expected, {0x00, 0x00});   // no named readings
  append(expected, kHalfLe);        // run time
  ASSERT_EQ(expected.size(), 13u + 4 + 1 + 108 * 16 + 2 + 8);

  const serve::Request request = gtx680_request(gtx680_catalog_profile());
  const std::vector<std::uint8_t> payload = encode_predict_request(42, request);
  EXPECT_EQ(payload, expected);

  // Names and classes come back from the catalog.
  const DecodedRequest decoded = decode_predict_request(payload, 0);
  ASSERT_EQ(decoded.request.counters.counters.size(), 108u);
  for (std::size_t i = 0; i < 108; ++i) {
    const profiler::CounterReading& in = request.counters.counters[i];
    const profiler::CounterReading& out = decoded.request.counters.counters[i];
    EXPECT_EQ(out.name, in.name);
    EXPECT_EQ(out.klass, in.klass);
    EXPECT_EQ(out.total, 1.0);
    EXPECT_EQ(out.per_second, 2.0);
  }
  EXPECT_EQ(encode_predict_request(42, decoded.request), payload);
}

TEST(NetProtocol, GoldenBytesV4MixPseudoCountersRideTheNamedTail) {
  profiler::ProfileResult counters = gtx680_catalog_profile();
  counters.counters.push_back(
      {"mix.bw_pressure", profiler::EventClass::Memory, 1.0, 2.0});
  counters.counters.push_back(
      {"mix.sx.ab", profiler::EventClass::Core, 2.0, 1.0});

  std::vector<std::uint8_t> expected = kGtx680Head;
  append(expected, {0, 0, 0, 0, 0x01});
  append(expected, dense_block_108());
  append(expected, {0x02, 0x00});   // two named readings
  append(expected, {15, 0, 'm', 'i', 'x', '.', 'b', 'w', '_', 'p', 'r', 'e',
                    's', 's', 'u', 'r', 'e', 0x01});  // Memory
  append(expected, kOneLe);
  append(expected, kTwoLe);
  append(expected, {9, 0, 'm', 'i', 'x', '.', 's', 'x', '.', 'a', 'b',
                    0x00});  // Core
  append(expected, kTwoLe);
  append(expected, kOneLe);
  append(expected, kHalfLe);

  const serve::Request request = gtx680_request(counters);
  const std::vector<std::uint8_t> payload = encode_predict_request(42, request);
  EXPECT_EQ(payload, expected);
  const DecodedRequest decoded = decode_predict_request(payload, 0);
  ASSERT_EQ(decoded.request.counters.counters.size(), 110u);
  EXPECT_EQ(decoded.request.counters.counters[108].name, "mix.bw_pressure");
  EXPECT_EQ(decoded.request.counters.counters[109].klass,
            profiler::EventClass::Core);
  EXPECT_EQ(decoded.request.counters.counters[109].total, 2.0);
}

TEST(NetProtocol, GoldenBytesV4NonzeroTenant) {
  // A profile that is not the board's catalog goes entirely in the named
  // tail (dense flag 0); the tenant is a fixed LE u32 either way.
  serve::Request request;
  request.kind = serve::RequestKind::Govern;
  request.gpu = sim::GpuModel::GTX460;
  request.policy = core::GovernorPolicy::PowerCap;
  request.pair = {sim::ClockLevel::High, sim::ClockLevel::Low};
  request.tenant = 0x01020304;
  request.counters.counters.push_back(
      {"x", profiler::EventClass::Memory, 1.0, 2.0});
  request.counters.run_time = Duration::seconds(0.5);

  std::vector<std::uint8_t> expected = {
      0x07, 0x01, 0, 0, 0, 0, 0, 0,  // request id 0x0107
      0x02,                          // Govern
      0x01,                          // GTX460
      0x02,                          // PowerCap
      0x02, 0x00,                    // High / Low
      0x04, 0x03, 0x02, 0x01,        // tenant
      0x00,                          // no dense block
      0x01, 0x00,                    // one named reading
      0x01, 0x00, 'x', 0x01};        // "x", Memory
  append(expected, kOneLe);
  append(expected, kTwoLe);
  append(expected, kHalfLe);

  const std::vector<std::uint8_t> payload =
      encode_predict_request(0x0107, request);
  EXPECT_EQ(payload, expected);
  EXPECT_EQ(decode_predict_request(payload, 0).request.tenant, 0x01020304u);
}

TEST(NetProtocol, NonCatalogProfileRoundTripsThroughNamedTail) {
  // sample_counters() is not the GTX 480's catalog, so nothing is dense:
  // every reading keeps its own name and class on the wire.
  const serve::Request request = sample_request();
  const std::vector<std::uint8_t> payload = encode_predict_request(5, request);
  EXPECT_EQ(payload[17], 0x00);  // dense flag after id/enums/pair/tenant
  const DecodedRequest decoded = decode_predict_request(payload, 0);
  ASSERT_EQ(decoded.request.counters.counters.size(),
            request.counters.counters.size());
  for (std::size_t i = 0; i < request.counters.counters.size(); ++i) {
    const profiler::CounterReading& in = request.counters.counters[i];
    const profiler::CounterReading& out = decoded.request.counters.counters[i];
    EXPECT_EQ(out.name, in.name);
    EXPECT_EQ(out.klass, in.klass);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.total),
              std::bit_cast<std::uint64_t>(in.total));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.per_second),
              std::bit_cast<std::uint64_t>(in.per_second));
  }
  EXPECT_EQ(encode_predict_request(5, decoded.request), payload);
}

TEST(NetProtocol, RejectsBadDenseFlag) {
  std::vector<std::uint8_t> payload =
      encode_predict_request(1, sample_request());
  payload[17] = 0x02;
  EXPECT_THROW(decode_predict_request(payload, 0), ProtocolError);
}

TEST(NetProtocol, DeadlineConversions) {
  EXPECT_EQ(deadline_to_micros(Duration::seconds(0.0)), 0u);
  EXPECT_EQ(deadline_to_micros(Duration::seconds(-1.0)), 0u);
  EXPECT_EQ(deadline_to_micros(Duration::milliseconds(1.5)), 1500u);
  // Sub-microsecond deadlines round *up* so they stay nonzero (zero on the
  // wire means "no deadline" — silently dropping one would be wrong).
  EXPECT_EQ(deadline_to_micros(Duration::seconds(1e-9)), 1u);
  EXPECT_DOUBLE_EQ(deadline_from_micros(1500).as_seconds(), 1.5e-3);
  EXPECT_DOUBLE_EQ(deadline_from_micros(0).as_seconds(), 0.0);
}

TEST(NetProtocol, PredictResponseRoundTrip) {
  serve::Response response;
  response.kind = serve::RequestKind::Govern;
  response.status = serve::ResponseStatus::Ok;
  response.pair = {sim::ClockLevel::Low, sim::ClockLevel::High};
  response.power_watts = 101.17;
  response.time_seconds = 0.1;
  response.energy_joules = 101.17 * 0.1;
  response.cache_hit = true;
  response.latency = Duration::seconds(3.25e-5);
  response.error = "";

  const std::vector<std::uint8_t> payload =
      encode_predict_response(42, response);
  const DecodedResponse decoded = decode_predict_response(payload);
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.response.kind, response.kind);
  EXPECT_EQ(decoded.response.status, response.status);
  EXPECT_EQ(decoded.response.pair, response.pair);
  EXPECT_EQ(decoded.response.power_watts, response.power_watts);
  EXPECT_EQ(decoded.response.time_seconds, response.time_seconds);
  EXPECT_EQ(decoded.response.energy_joules, response.energy_joules);
  EXPECT_TRUE(decoded.response.cache_hit);
  EXPECT_EQ(decoded.response.latency.as_seconds(),
            response.latency.as_seconds());
  EXPECT_EQ(decoded.response.error, "");
}

TEST(NetProtocol, ErrorResponseCarriesTypedStatus) {
  serve::Response response;
  response.kind = serve::RequestKind::Predict;
  response.status = serve::ResponseStatus::NoModels;
  response.error = "no models loaded for GTX680";
  const DecodedResponse decoded =
      decode_predict_response(encode_predict_response(1, response));
  EXPECT_EQ(decoded.response.status, serve::ResponseStatus::NoModels);
  EXPECT_EQ(decoded.response.error, "no models loaded for GTX680");
}

TEST(NetProtocol, RejectsOutOfRangeEnums) {
  const std::vector<std::uint8_t> good =
      encode_predict_request(1, sample_request());
  // Offsets: id u64 (0..7), kind (8), gpu (9), policy (10), pair (11, 12).
  for (const std::size_t offset : {8u, 9u, 10u, 11u, 12u}) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] = 0x7f;
    EXPECT_THROW(decode_predict_request(bad, 0), ProtocolError) << offset;
  }

  serve::Response response;
  const std::vector<std::uint8_t> resp = encode_predict_response(1, response);
  for (const std::size_t offset : {8u, 9u, 10u, 11u}) {
    std::vector<std::uint8_t> bad = resp;
    bad[offset] = 0x7f;
    EXPECT_THROW(decode_predict_response(bad), ProtocolError) << offset;
  }
  // cache_hit flag must be 0 or 1.
  std::vector<std::uint8_t> bad_hit = resp;
  bad_hit[12 + 24] = 2;  // after pair: 3 f64 = 24 bytes, then the flag
  EXPECT_THROW(decode_predict_response(bad_hit), ProtocolError);
}

TEST(NetProtocol, RejectsTruncatedAndPaddedPayloads) {
  std::vector<std::uint8_t> payload =
      encode_predict_request(9, sample_request());
  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_THROW(decode_predict_request(truncated, 0), ProtocolError);
  payload.push_back(0);  // trailing garbage
  EXPECT_THROW(decode_predict_request(payload, 0), ProtocolError);
}

TEST(NetProtocol, RejectsCounterCountBomb) {
  // A declared counter count the payload cannot hold must be rejected
  // before any proportional allocation happens.
  serve::Request request = sample_request();
  request.counters.counters.clear();
  std::vector<std::uint8_t> payload = encode_predict_request(1, request);
  // The u16 named-reading count sits after id/kind/gpu/policy/pair (13
  // bytes), the u32 tenant and the dense flag (an empty profile is not
  // the catalog, so no dense block follows).
  ASSERT_EQ(payload[17], 0x00);
  payload[18] = 0xff;
  payload[19] = 0xff;
  EXPECT_THROW(decode_predict_request(payload, 0), ProtocolError);
}

TEST(NetProtocol, ServerInfoRoundTrip) {
  ServerInfo info;
  info.boards.push_back({sim::GpuModel::GTX460, 0x1111222233334444ull,
                         0x5555666677778888ull});
  info.boards.push_back({sim::GpuModel::GTX680, 1, 2});
  const ServerInfo decoded = decode_server_info(encode_server_info(info));
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  ASSERT_EQ(decoded.boards.size(), 2u);
  EXPECT_EQ(decoded.boards[0].gpu, sim::GpuModel::GTX460);
  EXPECT_EQ(decoded.boards[0].power_fingerprint, 0x1111222233334444ull);
  EXPECT_EQ(decoded.boards[1].perf_fingerprint, 2u);
}

TEST(NetProtocol, HealthRoundTrip) {
  EXPECT_EQ(decode_health_request(encode_health_request(0xfeedf00dull)),
            0xfeedf00dull);
  HealthStatus status;
  status.accepting = false;
  status.boards = 3;
  status.queue_depth = 17;
  status.queue_capacity = 4096;
  status.workers = 8;
  const DecodedHealth decoded =
      decode_health_response(encode_health_response(0xabcdull, status));
  EXPECT_EQ(decoded.token, 0xabcdull);
  EXPECT_EQ(decoded.status.protocol_version, kProtocolVersion);
  EXPECT_FALSE(decoded.status.accepting);
  EXPECT_EQ(decoded.status.boards, 3u);
  EXPECT_EQ(decoded.status.queue_depth, 17u);
  EXPECT_EQ(decoded.status.queue_capacity, 4096u);
  EXPECT_EQ(decoded.status.workers, 8u);
}

TEST(NetProtocol, HealthRejectsMalformedPayload) {
  // The accepting flag is a strict 0/1 byte on the wire; anything else is
  // a protocol violation, and truncated payloads are typed errors.
  std::vector<std::uint8_t> bytes =
      encode_health_response(1, HealthStatus{});
  bytes[9] = 2;  // accepting byte follows u64 token + u8 version
  EXPECT_THROW(decode_health_response(bytes), ProtocolError);
  EXPECT_THROW(decode_health_request(std::vector<std::uint8_t>{0x01, 0x02}),
               ProtocolError);
  std::vector<std::uint8_t> truncated =
      encode_health_response(1, HealthStatus{});
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(decode_health_response(truncated), ProtocolError);
}

TEST(NetProtocol, PingAndWireErrorRoundTrip) {
  EXPECT_EQ(decode_ping(encode_ping(0xdeadbeefcafef00dull)),
            0xdeadbeefcafef00dull);
  const WireError error{WireErrorCode::ShuttingDown, "drain in progress"};
  const WireError decoded = decode_wire_error(encode_wire_error(error));
  EXPECT_EQ(decoded.code, WireErrorCode::ShuttingDown);
  EXPECT_EQ(decoded.message, "drain in progress");
  // Unknown codes are rejected.
  std::vector<std::uint8_t> bad = encode_wire_error(error);
  bad[0] = 99;
  EXPECT_THROW(decode_wire_error(bad), ProtocolError);
}

}  // namespace
}  // namespace gppm::net
