// Payload codecs: serve:: request/response vocabulary <-> frame payloads.
//
// The RPC surface mirrors the in-process PredictionServer exactly — a
// PredictRequest frame carries one serve::Request (kind, board, counter
// profile, pair, policy), a PredictResponse carries the serve::Response
// verbatim including the typed ResponseStatus — so a client cannot tell a
// wire prediction from an in-process one (the loopback integration test
// asserts bit-identity).  The service deadline is NOT part of these
// payloads: it rides in the frame header (frame.hpp) so the transport can
// stamp it onto the bridged request without running the payload codec.
//
// Every decoder validates enum ranges and exact payload consumption and
// throws ProtocolError on anything out of contract.  Model metadata
// (fingerprints) reuses core::model_fingerprint, i.e. the pinned
// core/serialization byte format.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "serve/request.hpp"

namespace gppm::net {

/// One served board as announced by InfoResponse.
struct ModelInfo {
  sim::GpuModel gpu = sim::GpuModel::GTX680;
  std::uint64_t power_fingerprint = 0;
  std::uint64_t perf_fingerprint = 0;
};

/// Server self-description (InfoResponse payload).
struct ServerInfo {
  std::uint8_t protocol_version = kProtocolVersion;
  std::vector<ModelInfo> boards;
};

/// Error codes carried by ErrorReply frames (u16 on the wire, so the
/// taxonomy can grow without a version bump).
enum class WireErrorCode : std::uint16_t {
  Malformed = 1,     ///< the peer's frame failed to decode
  ShuttingDown = 2,  ///< the backend rejected the request: shutdown
  Internal = 3,      ///< unexpected server-side failure
};

struct WireError {
  WireErrorCode code = WireErrorCode::Internal;
  std::string message;
};

/// A PredictRequest payload, decoded.  The request's deadline has already
/// been stamped from the frame header by decode_predict_request.
struct DecodedRequest {
  std::uint64_t request_id = 0;
  serve::Request request;
};

struct DecodedResponse {
  std::uint64_t request_id = 0;
  serve::Response response;
};

// Decoders take spans so the server's zero-copy path can hand them a view
// straight into the connection's stream buffer (FrameView::payload); a
// std::vector payload converts implicitly, so copy-holding callers (the
// client, the tests) are untouched.

// --- PredictRequest (protocol v4) ------------------------------------------
/// Layout: u64 request id, u8 kind, u8 gpu, u8 policy, u8 core level,
/// u8 memory level, u32 tenant, u8 dense flag; if the flag is 1, one
/// (f64 total, f64 per_second) pair per entry of the board's counter
/// catalog (profiler::counter_catalog of the gpu's architecture), in
/// catalog order; then a u16 count of named readings, each (str name,
/// u8 event class, f64 total, f64 per_second); then f64 run time.
///
/// The dense block is used when the profile's leading readings are the
/// catalog in order (same names and classes) — every profiler-produced
/// profile.  Names and classes are then not sent: the decoder fills them
/// in from the catalog.  Readings past the catalog (mix pseudo-counters)
/// and every reading of a profile that does not lead with the catalog go
/// in the named tail.  Frames carrying this payload are stamped v4.
std::vector<std::uint8_t> encode_predict_request(std::uint64_t request_id,
                                                 const serve::Request& request);
/// Arena variant: append the payload to `w` (not cleared first).
void encode_predict_request_into(WireWriter& w, std::uint64_t request_id,
                                 const serve::Request& request);
DecodedRequest decode_predict_request(std::span<const std::uint8_t> payload,
                                      std::uint64_t deadline_micros);
/// Slot variant: decode into `slot`, overwriting every field, and return
/// the request id.  The slot's readings vector keeps its capacity and
/// dense readings borrow the catalog's names, so once the slot has held a
/// profile as large, decoding a catalog-only request allocates nothing.
/// On ProtocolError the slot holds a valid but unspecified request.
std::uint64_t decode_predict_request_into(std::span<const std::uint8_t> payload,
                                          std::uint64_t deadline_micros,
                                          serve::Request& slot);

// --- PredictResponse ------------------------------------------------------
std::vector<std::uint8_t> encode_predict_response(
    std::uint64_t request_id, const serve::Response& response);
/// Arena variant: append the payload to `w` (not cleared first) so a
/// per-connection scratch writer can cycle through responses without
/// reallocating at steady state.
void encode_predict_response_into(WireWriter& w, std::uint64_t request_id,
                                  const serve::Response& response);
DecodedResponse decode_predict_response(std::span<const std::uint8_t> payload);

// --- Info -----------------------------------------------------------------
std::vector<std::uint8_t> encode_server_info(const ServerInfo& info);
ServerInfo decode_server_info(std::span<const std::uint8_t> payload);

// --- Ping / Pong ----------------------------------------------------------
std::vector<std::uint8_t> encode_ping(std::uint64_t token);
std::uint64_t decode_ping(std::span<const std::uint8_t> payload);

// --- Health (protocol v2) -------------------------------------------------

/// Liveness + load snapshot carried by a HealthResponse.  Deliberately
/// small and answered inline by the transport (never bridged through the
/// prediction queue), so a health probe observes queue pressure instead of
/// adding to it.
struct HealthStatus {
  std::uint8_t protocol_version = kProtocolVersion;
  bool accepting = true;            ///< false once shutdown has begun
  std::uint16_t boards = 0;         ///< served model pairs
  /// Requests waiting to be answered: the in-process serve queue plus the
  /// wire requests held decoded in connection slots.
  std::uint32_t queue_depth = 0;
  /// Bound of the above: serve queue capacity plus kAnswerBatch slots per
  /// live connection.
  std::uint32_t queue_capacity = 0;
  /// Threads that answer requests: serve workers plus live connection
  /// readers.
  std::uint32_t workers = 0;
};

struct DecodedHealth {
  std::uint64_t token = 0;  ///< echo of the request token
  HealthStatus status;
};

std::vector<std::uint8_t> encode_health_request(std::uint64_t token);
std::uint64_t decode_health_request(std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_health_response(std::uint64_t token,
                                                 const HealthStatus& status);
DecodedHealth decode_health_response(std::span<const std::uint8_t> payload);

// --- ErrorReply -----------------------------------------------------------
std::vector<std::uint8_t> encode_wire_error(const WireError& error);
WireError decode_wire_error(std::span<const std::uint8_t> payload);

/// Deadline header field <-> serve deadline (Duration; 0 = none).
std::uint64_t deadline_to_micros(Duration deadline);
Duration deadline_from_micros(std::uint64_t micros);

}  // namespace gppm::net
