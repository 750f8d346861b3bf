#include "net/server.hpp"

#include <utility>

#include "obs/obs.hpp"

namespace gppm::net {

namespace {

/// Registry lookups once per process; every hot-path record after that is
/// one relaxed atomic op on a cached reference.
struct ServerObs {
  obs::Counter& bytes_rx;
  obs::Counter& bytes_tx;
  obs::Counter& frames_rx;
  obs::Counter& frames_tx;
  obs::Counter& connections;
  obs::Counter& protocol_errors;
};

ServerObs& server_obs() {
  obs::Registry& reg = obs::Registry::instance();
  static ServerObs instruments{
      reg.counter("net.server.bytes_rx"),
      reg.counter("net.server.bytes_tx"),
      reg.counter("net.server.frames_rx"),
      reg.counter("net.server.frames_tx"),
      reg.counter("net.server.connections"),
      reg.counter("net.server.protocol_errors"),
  };
  return instruments;
}

}  // namespace

ServeBridge bridge_prediction_server(serve::PredictionServer& backend) {
  ServeBridge bridge;
  bridge.answer = [&backend](std::span<const serve::Request> requests,
                             std::span<serve::Response> responses,
                             std::chrono::steady_clock::time_point received) {
    backend.answer(requests, responses, received);
  };
  bridge.loaded_models = [&backend] { return backend.loaded_models(); };
  bridge.health = [&backend] {
    HealthStatus status;
    status.accepting = backend.running();
    status.boards = static_cast<std::uint16_t>(backend.loaded_models().size());
    status.queue_depth = static_cast<std::uint32_t>(backend.queue_depth());
    status.queue_capacity =
        static_cast<std::uint32_t>(backend.options().queue_capacity);
    status.workers =
        static_cast<std::uint32_t>(backend.options().worker_threads);
    return status;
  };
  return bridge;
}

Server::Server(serve::PredictionServer& backend, ServerOptions options,
               fault::FaultInjector* injector)
    : Server(bridge_prediction_server(backend), std::move(options), injector) {}

Server::Server(ServeBridge bridge, ServerOptions options,
               fault::FaultInjector* injector)
    : bridge_(std::move(bridge)),
      options_(std::move(options)),
      injector_(injector),
      listener_(options_.bind_address, options_.port, options_.backlog) {
  GPPM_CHECK(bridge_.answer && bridge_.loaded_models && bridge_.health,
             "ServeBridge requires answer, loaded_models and health");
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  stopped_.store(true, std::memory_order_release);
  listener_.shutdown();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const std::shared_ptr<Connection>& conn : connections_) {
      conn->socket.shutdown_both();
    }
  }
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (acceptor_.joinable()) acceptor_.join();
  reap(/*all=*/true);
  // Close (not just shut down) the listener so later dials are refused
  // outright; port() still reports the bound port.
  listener_.close();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_refused = connections_refused_.load();
  s.frames_received = frames_received_.load();
  s.frames_sent = frames_sent_.load();
  s.bytes_received = bytes_received_.load();
  s.bytes_sent = bytes_sent_.load();
  s.protocol_errors = protocol_errors_.load();
  s.requests_bridged = requests_bridged_.load();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    s.connections_active = connections_.size();
  }
  return s;
}

HealthStatus Server::wire_health() const {
  HealthStatus status = bridge_.health();
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (const std::shared_ptr<Connection>& conn : connections_) {
    if (conn->exited.load(std::memory_order_acquire)) continue;
    status.workers += 1;
    status.queue_capacity += static_cast<std::uint32_t>(kAnswerBatch);
    status.queue_depth += static_cast<std::uint32_t>(
        conn->pending.load(std::memory_order_relaxed));
  }
  return status;
}

ServerInfo Server::build_info() const {
  ServerInfo info;
  for (const serve::PredictionServer::LoadedModel& m :
       bridge_.loaded_models()) {
    info.boards.push_back({m.gpu, m.power_fingerprint, m.perf_fingerprint});
  }
  return info;
}

void Server::reap(bool all) {
  std::list<std::shared_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (all || (*it)->exited.load(std::memory_order_acquire)) {
        dead.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const std::shared_ptr<Connection>& conn : dead) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void Server::accept_loop() {
  while (!stopped_.load(std::memory_order_acquire)) {
    Socket raw;
    try {
      raw = listener_.accept();
    } catch (const ConnectionError&) {
      break;
    }
    if (!raw.valid()) break;  // listener shut down
    reap(/*all=*/false);

    std::size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      active = connections_.size();
    }
    if (active >= options_.max_connections) {
      // Typed refusal instead of a silent close: the peer reads one
      // ErrorReply frame, then EOF.
      connections_refused_.fetch_add(1);
      const std::vector<std::uint8_t> bytes = encode_frame(
          FrameType::ErrorReply,
          encode_wire_error({WireErrorCode::ShuttingDown,
                             "connection limit reached (" +
                                 std::to_string(options_.max_connections) +
                                 ")"}));
      try {
        raw.write_all(bytes.data(), bytes.size());
      } catch (const ConnectionError&) {
      }
      continue;
    }

    connections_accepted_.fetch_add(1);
    server_obs().connections.add();
    auto conn = std::make_shared<Connection>();
    conn->socket = fault::FaultySocket(std::move(raw), injector_);
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(conn);
    }
    // The thread holds a shared_ptr so the Connection outlives its list
    // entry even if a reap races the spawn.
    conn->reader = std::thread([this, conn] { reader_loop(*conn); });
  }
}

void Server::reader_loop(Connection& conn) {
  FrameDecoder decoder(options_.max_frame_payload);
  bool open = true;
  while (open && !stopped_.load(std::memory_order_acquire)) {
    std::size_t n = 0;
    try {
      if (!conn.socket.wait_readable(options_.poll_interval_ms)) continue;
      n = conn.socket.read_some(conn.read_buf.data(), conn.read_buf.size());
    } catch (const ConnectionError&) {
      break;
    }
    if (n == 0) break;  // orderly EOF
    const auto received = std::chrono::steady_clock::now();
    obs::ObsSpan span("net.server.dispatch");
    bytes_received_.fetch_add(n);
    server_obs().bytes_rx.add(n);
    conn.arena.reset();
    conn.replies = 0;
    try {
      try {
        decoder.feed(conn.read_buf.data(), n);
        // next_view() surfaces each frame's payload as a view into the
        // decoder's buffer; requests are decoded straight from it, so
        // request bytes are copied exactly once (socket -> stream buffer)
        // on this path.  The views die before the next feed(), as
        // required.
        while (std::optional<FrameView> frame = decoder.next_view()) {
          frames_received_.fetch_add(1);
          server_obs().frames_rx.add();
          if (frame->header.type == FrameType::PredictRequest) {
            const std::size_t slot =
                conn.pending.load(std::memory_order_relaxed);
            conn.request_ids[slot] = decode_predict_request_into(
                frame->payload, frame->header.deadline_micros,
                conn.requests[slot]);
            conn.pending.store(slot + 1, std::memory_order_relaxed);
            if (slot + 1 == kAnswerBatch) answer_pending(conn, received);
          } else {
            answer_pending(conn, received);
            answer_control(conn, *frame);
          }
        }
        answer_pending(conn, received);
      } catch (const ProtocolError& e) {
        // Bad bytes are not retryable: answer what came before them, tell
        // the peer why, then drop it.
        protocol_errors_.fetch_add(1);
        server_obs().protocol_errors.add();
        open = false;
        answer_pending(conn, received);
        append_reply(conn, FrameType::ErrorReply,
                     encode_wire_error({WireErrorCode::Malformed, e.what()}));
      }
    } catch (const Error& e) {
      // The bridge cannot serve (backend shut down): answer typed, then
      // drop the peer — nothing further can be served on this process.
      open = false;
      conn.pending.store(0, std::memory_order_relaxed);
      append_reply(conn, FrameType::ErrorReply,
                   encode_wire_error({WireErrorCode::ShuttingDown, e.what()}));
    }
    if (!flush(conn)) break;
  }
  // The peer sees EOF now, not when the connection is reaped.
  conn.socket.shutdown_both();
  conn.exited.store(true, std::memory_order_release);
}

void Server::answer_pending(Connection& conn,
                            std::chrono::steady_clock::time_point received) {
  const std::size_t count = conn.pending.load(std::memory_order_relaxed);
  if (count == 0) return;
  bridge_.answer(std::span<const serve::Request>(conn.requests.data(), count),
                 std::span<serve::Response>(conn.responses.data(), count),
                 received);
  requests_bridged_.fetch_add(count);
  // Every reply is encoded into the connection arena; once it has warmed
  // to the working-set size the reply path allocates nothing.
  for (std::size_t i = 0; i < count; ++i) {
    WireWriter& payload = conn.arena.payload();
    payload.clear();
    encode_predict_response_into(payload, conn.request_ids[i],
                                 conn.responses[i]);
    encode_frame_into(conn.arena.frames(), FrameType::PredictResponse,
                      payload.data());
  }
  conn.replies += count;
  conn.pending.store(0, std::memory_order_relaxed);
}

void Server::answer_control(Connection& conn, const FrameView& frame) {
  switch (frame.header.type) {
    case FrameType::Ping:
      append_reply(conn, FrameType::Pong,
                   encode_ping(decode_ping(frame.payload)));
      return;
    case FrameType::InfoRequest:
      if (!frame.payload.empty()) {
        throw ProtocolError("InfoRequest carries a payload");
      }
      append_reply(conn, FrameType::InfoResponse,
                   encode_server_info(build_info()));
      return;
    case FrameType::HealthRequest:
      append_reply(conn, FrameType::HealthResponse,
                   encode_health_response(
                       decode_health_request(frame.payload), wire_health()));
      return;
    default:
      // Server-bound traffic is Ping / InfoRequest / HealthRequest /
      // PredictRequest only.
      throw ProtocolError("unexpected " + to_string(frame.header.type) +
                          " frame on the server side");
  }
}

void Server::append_reply(Connection& conn, FrameType type,
                          std::span<const std::uint8_t> payload) {
  encode_frame_into(conn.arena.frames(), type, payload);
  ++conn.replies;
}

bool Server::flush(Connection& conn) {
  const std::vector<std::uint8_t>& out = conn.arena.frames();
  if (out.empty()) return true;
  // One write per read: a pipelining peer gets its responses in a single
  // segment.  Blocking here while the peer does not read is the
  // per-connection back-pressure.
  try {
    conn.socket.write_all(out.data(), out.size());
  } catch (const ConnectionError&) {
    return false;
  }
  frames_sent_.fetch_add(conn.replies);
  server_obs().frames_tx.add(conn.replies);
  bytes_sent_.fetch_add(out.size());
  server_obs().bytes_tx.add(out.size());
  return true;
}

}  // namespace gppm::net
