#include "cluster/fleet.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"

namespace gppm::cluster {

LocalFleet::LocalFleet(core::UnifiedModel power_model,
                       core::UnifiedModel perf_model, FleetOptions options,
                       RouterOptions router_options)
    : options_(std::move(options)),
      power_(std::move(power_model)),
      perf_(std::move(perf_model)) {
  GPPM_CHECK(options_.backends >= 1, "fleet needs at least one backend");
  router_ = std::make_unique<Router>(router_options);

  nodes_.reserve(options_.backends);
  for (std::size_t i = 0; i < options_.backends; ++i) {
    const std::string name = "node" + std::to_string(next_id_++);
    std::unique_ptr<Node> node = make_node(name);
    if (i == 0) {
      // Same pair everywhere, so node 0 speaks for the fleet.
      models_ = node->local->server()->loaded_models();
    }
    router_->add_backend(node->fronting);
    nodes_.push_back(std::move(node));
  }
}

std::unique_ptr<LocalFleet::Node> LocalFleet::make_node(
    const std::string& name) {
  auto node = std::make_unique<Node>();
  node->local =
      std::make_shared<LocalBackend>(name, power_, perf_, options_.server);
  if (options_.wire) {
    net::ServerOptions sopt;
    sopt.port = 0;  // ephemeral on first bind, pinned thereafter
    node->server =
        std::make_unique<net::Server>(*node->local->server(), sopt);
    node->port = node->server->port();
    net::ClientOptions copt = options_.client;
    copt.host = "127.0.0.1";
    copt.port = node->port;
    node->fronting = std::make_shared<RemoteBackend>(
        name, copt, options_.remote_workers, options_.injector);
  } else {
    node->fronting = node->local;
  }
  if (options_.shaped) {
    node->fronting =
        std::make_shared<ShapedBackend>(node->fronting, options_.shaping);
  }
  return node;
}

LocalFleet::~LocalFleet() { stop(); }

void LocalFleet::stop() {
  std::unique_lock<std::shared_mutex> lock(nodes_mutex_);
  if (stopped_) return;
  stopped_ = true;
  router_->stop();
  for (const std::unique_ptr<Node>& node : nodes_) {
    std::lock_guard<std::mutex> node_lock(node->lifecycle);
    if (node->server) node->server->stop();
    node->local->kill();
  }
}

LocalFleet::Node& LocalFleet::node_at(std::size_t i) const {
  std::shared_lock<std::shared_mutex> lock(nodes_mutex_);
  GPPM_CHECK(i < nodes_.size(), "node index out of range");
  // Stable: nodes are never erased and the unique_ptr target never moves.
  return *nodes_[i];
}

std::size_t LocalFleet::size() const {
  std::shared_lock<std::shared_mutex> lock(nodes_mutex_);
  return nodes_.size();
}

const std::string& LocalFleet::name(std::size_t i) const {
  return node_at(i).local->name();
}

std::uint16_t LocalFleet::port(std::size_t i) const {
  return node_at(i).port;
}

bool LocalFleet::alive(std::size_t i) const {
  return node_at(i).local->alive();
}

void LocalFleet::kill(std::size_t i) {
  Node& node = node_at(i);
  std::lock_guard<std::mutex> lock(node.lifecycle);
  // TCP front first (peers see the reset immediately), then the serving
  // engine — the order a real process death presents.
  if (node.server) {
    node.server->stop();
    node.server.reset();
  }
  node.local->kill();
}

void LocalFleet::restart(std::size_t i) {
  Node& node = node_at(i);
  std::lock_guard<std::mutex> lock(node.lifecycle);
  // A restart without a prior kill still swaps the prediction server; the
  // old TCP front must not outlive the engine it references.
  if (node.server) {
    node.server->stop();
    node.server.reset();
  }
  node.local->restart();
  if (options_.wire && !node.server) {
    // Same port (SO_REUSEADDR): clients redial the address they already
    // know, and the pool's stale-FD eviction re-adopts the node.
    net::ServerOptions sopt;
    sopt.port = node.port;
    node.server =
        std::make_unique<net::Server>(*node.local->server(), sopt);
  }
}

std::size_t LocalFleet::add_node() {
  std::unique_lock<std::shared_mutex> lock(nodes_mutex_);
  GPPM_CHECK(!stopped_, "fleet is stopped");
  const std::string name = "node" + std::to_string(next_id_++);
  std::unique_ptr<Node> node = make_node(name);
  router_->add_backend(node->fronting);
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

DrainReport LocalFleet::drain_node(std::size_t i, Duration timeout) {
  Node& node = node_at(i);
  // Router drain first: the node leaves the ring and finishes its
  // in-flight work while still fully alive, *then* the engine goes down.
  DrainReport report =
      router_->drain_backend(node.local->name(), timeout);
  std::lock_guard<std::mutex> lock(node.lifecycle);
  if (node.server) {
    node.server->stop();
    node.server.reset();
  }
  node.local->kill();
  return report;
}

void LocalFleet::rejoin(std::size_t i) {
  if (in_ring(i)) return;
  restart(i);
  Node& node = node_at(i);
  router_->add_backend(node.fronting);
}

bool LocalFleet::in_ring(std::size_t i) const {
  const std::string& who = node_at(i).local->name();
  for (const std::string& member : router_->backends()) {
    if (member == who) return true;
  }
  return false;
}

bool LocalFleet::probe(std::size_t i) const {
  Node& node = node_at(i);
  // Co-located fast path: a dead engine answers no ping — skip the wire
  // round-trip (and its retry backoff) straight to "down".  A live engine
  // behind a dead TCP front still goes through the real probe.
  if (!node.local->alive()) return false;
  try {
    return node.fronting->ping();
  } catch (const std::exception&) {
    return false;
  }
}

RollingRestartReport LocalFleet::rolling_restart(Duration per_node_timeout) {
  const auto start = std::chrono::steady_clock::now();
  RollingRestartReport report;
  const std::size_t count = size();
  for (std::size_t i = 0; i < count; ++i) {
    if (!in_ring(i)) continue;  // drained/parked nodes are not upgraded
    DrainReport drain =
        router_->drain_backend(name(i), per_node_timeout);
    restart(i);
    Node& node = node_at(i);
    router_->add_backend(node.fronting);
    report.zero_loss = report.zero_loss && drain.zero_loss;
    report.drains.push_back(std::move(drain));
  }
  report.duration = Duration::seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return report;
}

std::vector<serve::PredictionServer::LoadedModel> LocalFleet::loaded_models()
    const {
  return models_;
}

net::ServeBridge LocalFleet::bridge() {
  net::ServeBridge bridge;
  bridge.answer = [this](std::span<const serve::Request> requests,
                         std::span<serve::Response> responses,
                         std::chrono::steady_clock::time_point) {
    // Deadlines ride each request into the backend that serves it.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      try {
        responses[i] = router_->predict(requests[i]);
      } catch (const std::exception& e) {
        // predict() throws only for no-backends/stopped; answer typed,
        // as the serve contract does.
        serve::Response response;
        response.kind = requests[i].kind;
        response.status = serve::ResponseStatus::InternalError;
        response.error = e.what();
        responses[i] = std::move(response);
      }
    }
  };
  bridge.loaded_models = [this] { return loaded_models(); };
  bridge.health = [this] {
    net::HealthStatus status = router_->health();
    status.boards = static_cast<std::uint16_t>(models_.size());
    return status;
  };
  return bridge;
}

}  // namespace gppm::cluster
