#include "net/protocol.hpp"

#include <bit>
#include <cmath>

#include "gpusim/device_spec.hpp"
#include "profiler/counters.hpp"

namespace gppm::net {

namespace {

/// Decode a wire enum byte, rejecting values outside [0, count).
template <typename E>
E checked_enum(std::uint8_t raw, std::uint8_t count, const char* what) {
  if (raw >= count) {
    throw ProtocolError(std::string("out-of-range ") + what + " value " +
                        std::to_string(raw));
  }
  return static_cast<E>(raw);
}

void encode_pair(WireWriter& w, sim::FrequencyPair pair) {
  w.u8(static_cast<std::uint8_t>(sim::level_index(pair.core)));
  w.u8(static_cast<std::uint8_t>(sim::level_index(pair.mem)));
}

sim::FrequencyPair decode_pair(WireReader& r) {
  sim::FrequencyPair pair;
  pair.core = checked_enum<sim::ClockLevel>(r.u8(), 3, "core clock level");
  pair.mem = checked_enum<sim::ClockLevel>(r.u8(), 3, "memory clock level");
  return pair;
}

const std::vector<profiler::CounterDef>& board_catalog(sim::GpuModel gpu) {
  return profiler::counter_catalog(sim::device_spec(gpu).architecture);
}

/// True when the leading readings of `counters` are `catalog`, in order
/// and with matching names and classes — the dense block's precondition.
bool leads_with_catalog(const profiler::ProfileResult& counters,
                        const std::vector<profiler::CounterDef>& catalog) {
  if (counters.counters.size() < catalog.size()) return false;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const profiler::CounterReading& r = counters.counters[i];
    if (r.klass != catalog[i].klass || r.name != catalog[i].name) return false;
  }
  return true;
}

void encode_counters(WireWriter& w, const profiler::ProfileResult& counters,
                     const std::vector<profiler::CounterDef>& catalog) {
  const bool dense = leads_with_catalog(counters, catalog);
  // Room for the dense block (or the numeric part of the named form) in
  // one step; only long tail names can grow the buffer again.
  w.reserve(w.size() + 32 + 16 * counters.counters.size());
  w.u8(dense ? 1 : 0);
  std::size_t first_named = 0;
  if (dense) {
    std::uint8_t* out = w.extend(16 * catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const profiler::CounterReading& r = counters.counters[i];
      store_le64(out + 16 * i, std::bit_cast<std::uint64_t>(r.total));
      store_le64(out + 16 * i + 8, std::bit_cast<std::uint64_t>(r.per_second));
    }
    first_named = catalog.size();
  }
  const std::size_t named = counters.counters.size() - first_named;
  GPPM_CHECK(named <= 0xffff, "too many counters");
  w.u16(static_cast<std::uint16_t>(named));
  for (std::size_t i = first_named; i < counters.counters.size(); ++i) {
    const profiler::CounterReading& c = counters.counters[i];
    w.str(c.name);
    w.u8(static_cast<std::uint8_t>(c.klass));
    w.f64(c.total);
    w.f64(c.per_second);
  }
  w.f64(counters.run_time.as_seconds());
}

profiler::ProfileResult decode_counters(
    WireReader& r, const std::vector<profiler::CounterDef>& catalog) {
  const std::uint8_t dense = r.u8();
  if (dense > 1) throw ProtocolError("bad dense-block flag");
  const std::size_t dense_count = dense ? catalog.size() : 0;
  const std::uint8_t* block = r.bytes(16 * dense_count, "dense counter block");
  const std::size_t named = r.u16();
  // Each named reading is at least 19 bytes (empty name) and the run time
  // follows; a count the remaining bytes cannot possibly hold is rejected
  // before reserving for it.
  if (named * 19 + 8 > r.remaining()) {
    throw ProtocolError("counter count " + std::to_string(named) +
                        " exceeds payload");
  }
  profiler::ProfileResult result;
  result.counters.resize(dense_count + named);
  for (std::size_t i = 0; i < dense_count; ++i) {
    profiler::CounterReading& reading = result.counters[i];
    reading.name = catalog[i].name;
    reading.klass = catalog[i].klass;
    reading.total = std::bit_cast<double>(load_le64(block + 16 * i));
    reading.per_second = std::bit_cast<double>(load_le64(block + 16 * i + 8));
  }
  for (std::size_t i = dense_count; i < result.counters.size(); ++i) {
    profiler::CounterReading& reading = result.counters[i];
    reading.name = r.str();
    reading.klass =
        checked_enum<profiler::EventClass>(r.u8(), 2, "event class");
    reading.total = r.f64();
    reading.per_second = r.f64();
  }
  result.run_time = Duration::seconds(r.f64());
  return result;
}

}  // namespace

std::uint64_t deadline_to_micros(Duration deadline) {
  const double seconds = deadline.as_seconds();
  if (!(seconds > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::ceil(seconds * 1e6));
}

Duration deadline_from_micros(std::uint64_t micros) {
  return Duration::microseconds(static_cast<double>(micros));
}

void encode_predict_request_into(WireWriter& w, std::uint64_t request_id,
                                 const serve::Request& request) {
  w.u64(request_id);
  w.u8(static_cast<std::uint8_t>(request.kind));
  w.u8(static_cast<std::uint8_t>(request.gpu));
  w.u8(static_cast<std::uint8_t>(request.policy));
  encode_pair(w, request.pair);
  w.u32(request.tenant);
  encode_counters(w, request.counters, board_catalog(request.gpu));
}

std::vector<std::uint8_t> encode_predict_request(
    std::uint64_t request_id, const serve::Request& request) {
  WireWriter w;
  encode_predict_request_into(w, request_id, request);
  return w.take();
}

DecodedRequest decode_predict_request(std::span<const std::uint8_t> payload,
                                      std::uint64_t deadline_micros) {
  WireReader r(payload);
  DecodedRequest decoded;
  decoded.request_id = r.u64();
  decoded.request.kind = checked_enum<serve::RequestKind>(
      r.u8(), serve::kRequestKindCount, "request kind");
  decoded.request.gpu = checked_enum<sim::GpuModel>(
      r.u8(), static_cast<std::uint8_t>(sim::kAllGpus.size()), "gpu model");
  decoded.request.policy =
      checked_enum<core::GovernorPolicy>(r.u8(), 3, "governor policy");
  decoded.request.pair = decode_pair(r);
  decoded.request.tenant = r.u32();
  decoded.request.counters =
      decode_counters(r, board_catalog(decoded.request.gpu));
  decoded.request.deadline = deadline_from_micros(deadline_micros);
  r.expect_done("predict-request");
  return decoded;
}

void encode_predict_response_into(WireWriter& w, std::uint64_t request_id,
                                  const serve::Response& response) {
  w.u64(request_id);
  w.u8(static_cast<std::uint8_t>(response.kind));
  w.u8(static_cast<std::uint8_t>(response.status));
  encode_pair(w, response.pair);
  w.f64(response.power_watts);
  w.f64(response.time_seconds);
  w.f64(response.energy_joules);
  w.u8(response.cache_hit ? 1 : 0);
  w.f64(response.latency.as_seconds());
  w.str(response.error);
}

std::vector<std::uint8_t> encode_predict_response(
    std::uint64_t request_id, const serve::Response& response) {
  WireWriter w;
  encode_predict_response_into(w, request_id, response);
  return w.take();
}

DecodedResponse decode_predict_response(
    std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  DecodedResponse decoded;
  decoded.request_id = r.u64();
  decoded.response.kind = checked_enum<serve::RequestKind>(
      r.u8(), serve::kRequestKindCount, "response kind");
  decoded.response.status =
      checked_enum<serve::ResponseStatus>(r.u8(), 5, "response status");
  decoded.response.pair = decode_pair(r);
  decoded.response.power_watts = r.f64();
  decoded.response.time_seconds = r.f64();
  decoded.response.energy_joules = r.f64();
  const std::uint8_t hit = r.u8();
  if (hit > 1) throw ProtocolError("bad cache-hit flag");
  decoded.response.cache_hit = hit != 0;
  decoded.response.latency = Duration::seconds(r.f64());
  decoded.response.error = r.str();
  r.expect_done("predict-response");
  return decoded;
}

std::vector<std::uint8_t> encode_server_info(const ServerInfo& info) {
  WireWriter w;
  w.u8(info.protocol_version);
  GPPM_CHECK(info.boards.size() <= 0xff, "too many boards");
  w.u8(static_cast<std::uint8_t>(info.boards.size()));
  for (const ModelInfo& board : info.boards) {
    w.u8(static_cast<std::uint8_t>(board.gpu));
    w.u64(board.power_fingerprint);
    w.u64(board.perf_fingerprint);
  }
  return w.take();
}

ServerInfo decode_server_info(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  ServerInfo info;
  info.protocol_version = r.u8();
  const std::size_t count = r.u8();
  info.boards.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ModelInfo board;
    board.gpu = checked_enum<sim::GpuModel>(
        r.u8(), static_cast<std::uint8_t>(sim::kAllGpus.size()), "gpu model");
    board.power_fingerprint = r.u64();
    board.perf_fingerprint = r.u64();
    info.boards.push_back(board);
  }
  r.expect_done("info-response");
  return info;
}

std::vector<std::uint8_t> encode_ping(std::uint64_t token) {
  WireWriter w;
  w.u64(token);
  return w.take();
}

std::uint64_t decode_ping(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  const std::uint64_t token = r.u64();
  r.expect_done("ping");
  return token;
}

std::vector<std::uint8_t> encode_health_request(std::uint64_t token) {
  WireWriter w;
  w.u64(token);
  return w.take();
}

std::uint64_t decode_health_request(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  const std::uint64_t token = r.u64();
  r.expect_done("health-request");
  return token;
}

std::vector<std::uint8_t> encode_health_response(std::uint64_t token,
                                                 const HealthStatus& status) {
  WireWriter w;
  w.u64(token);
  w.u8(status.protocol_version);
  w.u8(status.accepting ? 1 : 0);
  w.u16(status.boards);
  w.u32(status.queue_depth);
  w.u32(status.queue_capacity);
  w.u32(status.workers);
  return w.take();
}

DecodedHealth decode_health_response(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  DecodedHealth decoded;
  decoded.token = r.u64();
  decoded.status.protocol_version = r.u8();
  const std::uint8_t accepting = r.u8();
  if (accepting > 1) throw ProtocolError("bad health accepting flag");
  decoded.status.accepting = accepting != 0;
  decoded.status.boards = r.u16();
  decoded.status.queue_depth = r.u32();
  decoded.status.queue_capacity = r.u32();
  decoded.status.workers = r.u32();
  r.expect_done("health-response");
  return decoded;
}

std::vector<std::uint8_t> encode_wire_error(const WireError& error) {
  WireWriter w;
  w.u16(static_cast<std::uint16_t>(error.code));
  w.str(error.message);
  return w.take();
}

WireError decode_wire_error(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireError error;
  const std::uint16_t code = r.u16();
  if (code < 1 || code > 3) {
    throw ProtocolError("unknown wire error code " + std::to_string(code));
  }
  error.code = static_cast<WireErrorCode>(code);
  error.message = r.str();
  r.expect_done("error-reply");
  return error;
}

}  // namespace gppm::net
