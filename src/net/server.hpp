// net::Server — the prediction server on the wire.
//
// Bridges decoded PredictRequest frames into a serve::PredictionServer (or
// a cluster router), preserving every in-process serving property: the
// group-by-(tenant, gpu, kind) batch routine, the sharded prediction
// cache, tenant quotas, typed ResponseStatus answers, and per-request
// deadlines (stamped from the frame header's deadline field).
//
// Thread shape: one accept thread, and one reader thread per connection
// that answers every frame itself.
//
//   accept thread ──▶ per-connection reader, per socket read:
//                       1. decode the complete frames (FrameDecoder views)
//                       2. bridge.answer(the read's PredictRequests), in
//                          batches of up to 8
//                       3. encode every reply into the connection Arena
//                       4. one write_all
//
// The rules this shape gives:
//
//   * FIFO: replies leave in the order their frames arrived.  Control
//     frames (Ping, Info, Health) are answered in place, after the
//     PredictRequests that preceded them in the read.
//   * Deadline clock: a request's deadline starts when the socket read
//     that completed its frame returns.
//   * Error ordering: frames decoded before a malformed frame are still
//     answered, in order, before the Malformed ErrorReply; then the
//     connection closes.
//   * Back-pressure: a peer that stops reading blocks only its own reader
//     in write_all, and with it the reading of that peer's further
//     requests — the socket is the queue.
//   * Concurrency: one in-flight batch per connection.  There is no queue
//     shedding on this path (tenant quotas still apply).
//
// stop() is idempotent: it shuts the listener and every connection socket
// down, which unblocks every reader (in poll, read or write_all), then
// joins them.
//
// All socket I/O runs through fault::FaultySocket, so the chaos suite can
// inject short reads and mid-frame resets server-side too; gppm::obs
// counters (net.server.*) account bytes, frames, connections and protocol
// errors.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/arena.hpp"
#include "net/faulty_socket.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"

namespace gppm::net {

struct ServerOptions {
  /// IPv4 address to bind; loopback by default (the deployment shape is a
  /// node-local sidecar the cluster governor talks to).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port, readable via Server::port().
  std::uint16_t port = 0;
  int backlog = 64;
  /// Connections beyond this are accepted and immediately closed with an
  /// ErrorReply, so a client sees a typed refusal instead of a hang.
  std::size_t max_connections = 64;
  std::size_t max_frame_payload = kDefaultMaxPayload;
  /// Reader poll tick; bounds how fast stop() is observed when idle.
  int poll_interval_ms = 100;
};

/// Point-in-time transport counters (process-wide obs counters mirror
/// these under net.server.*).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t requests_bridged = 0;
};

/// PredictRequests a connection decodes and holds before answering them,
/// and so its number of decode slots.  A read can carry a client's whole
/// pipeline (perfbench sends 32 frames per batch); answering it in slices
/// of 8 keeps the decoded set, and with it the reader thread's heap,
/// small.  On perfbench's wire_mixed, holding all 32 raised peak RSS by
/// about 9% over handing each request to a serve worker; slices of 8, by
/// about 4%, at the same CPU cost per request.
inline constexpr std::size_t kAnswerBatch = 8;

/// What the transport needs from whatever answers requests.  The classic
/// shape binds a serve::PredictionServer directly; the cluster router
/// binds its own predict path so a whole fleet can sit behind one port.
/// Every function runs on the connection's reader thread.  `answer` fills
/// responses[i] for requests[i] (deadline clocks started at `received`)
/// and throws gppm::Error only when nothing can be served any more
/// (shutdown).  `health` must be cheap.
struct ServeBridge {
  std::function<void(std::span<const serve::Request> requests,
                     std::span<serve::Response> responses,
                     std::chrono::steady_clock::time_point received)>
      answer;
  std::function<std::vector<serve::PredictionServer::LoadedModel>()>
      loaded_models;
  std::function<HealthStatus()> health;
};

/// Build the bridge for the single-node shape.  `backend` must outlive
/// every use of the returned functions.
ServeBridge bridge_prediction_server(serve::PredictionServer& backend);

/// TCP front-end over a ServeBridge (a PredictionServer or a cluster
/// router).
class Server {
 public:
  /// Binds and starts serving immediately.  `backend` must outlive the
  /// Server.  `injector` may be nullptr; when set, server-side socket I/O
  /// consults the net.* fault sites.
  Server(serve::PredictionServer& backend, ServerOptions options = {},
         fault::FaultInjector* injector = nullptr);
  /// Same, fronting an arbitrary bridge (all three functions required).
  Server(ServeBridge bridge, ServerOptions options = {},
         fault::FaultInjector* injector = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the chosen one when options.port was 0).
  std::uint16_t port() const { return listener_.port(); }
  const std::string& address() const { return options_.bind_address; }

  /// Shut the listener and every connection down, join all threads.
  /// Idempotent and safe to call concurrently.
  void stop();
  bool running() const { return !stopped_.load(std::memory_order_acquire); }

  ServerStats stats() const;

 private:
  struct Connection {
    fault::FaultySocket socket;
    /// Socket read scratch, allocated once per connection (not per loop
    /// iteration) — part of the steady-state zero-allocation contract.
    std::vector<std::uint8_t> read_buf = std::vector<std::uint8_t>(64 * 1024);
    /// Decode slots for the current read's PredictRequests, their ids and
    /// answer slots, kAnswerBatch of each.  The first `pending` hold
    /// requests decoded but not yet answered.  A slot keeps its readings'
    /// capacity, so a warm connection decodes catalog-only requests
    /// without allocating.
    std::array<serve::Request, kAnswerBatch> requests;
    std::array<std::uint64_t, kAnswerBatch> request_ids{};
    std::array<serve::Response, kAnswerBatch> responses;
    /// Written by the reader only; read by health probes on other
    /// connections.
    std::atomic<std::size_t> pending{0};
    /// The current read's reply frames, written with one write_all.
    Arena arena;
    std::size_t replies = 0;
    std::thread reader;
    /// Set when the reader is done, so the accept loop can reap the
    /// connection without blocking on a live one's join.
    std::atomic<bool> exited{false};
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  /// Answer one control frame (Ping, Info, Health) into the arena.  The
  /// frame's payload is a view into the decoder's buffer.  Throws
  /// ProtocolError for frames a server must not receive.
  void answer_control(Connection& conn, const FrameView& frame);
  /// Answer the read's pending PredictRequests as one bridge batch and
  /// append their replies.  Throws gppm::Error when the bridge cannot
  /// serve (backend shut down).
  void answer_pending(Connection& conn,
                      std::chrono::steady_clock::time_point received);
  void append_reply(Connection& conn, FrameType type,
                    std::span<const std::uint8_t> payload);
  /// Write the read's replies; false when the peer is gone.
  bool flush(Connection& conn);
  ServerInfo build_info() const;
  /// The bridge's health plus what the wire path holds: live reader
  /// connections, their decode slots, and the requests held in them.
  HealthStatus wire_health() const;
  /// Reap finished connections (joins their threads).  Called from the
  /// accept loop; stop() reaps everything.
  void reap(bool all);

  ServeBridge bridge_;
  ServerOptions options_;
  fault::FaultInjector* injector_;
  Listener listener_;
  std::thread acceptor_;
  std::atomic<bool> stopped_{false};
  std::mutex shutdown_mutex_;

  mutable std::mutex connections_mutex_;
  std::list<std::shared_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_refused_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> requests_bridged_{0};
};

}  // namespace gppm::net
