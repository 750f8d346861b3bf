#include "cluster/router.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "fault/plan.hpp"
#include "obs/obs.hpp"

namespace gppm::cluster {

namespace {

struct RouterObs {
  obs::Counter& requests;
  obs::Counter& hedges_fired;
  obs::Counter& hedge_wins;
  obs::Counter& hedges_abandoned;
  obs::Counter& failovers;
  obs::Counter& breaker_opens;
  obs::Counter& breaker_rejections;
  obs::Counter& ring_remaps;
  obs::Counter& exhausted;
  obs::Counter& admission_shed;
  obs::Histogram& latency_us;
};

RouterObs& router_obs() {
  obs::Registry& reg = obs::Registry::instance();
  static RouterObs instruments{
      reg.counter("cluster.router.requests"),
      reg.counter("cluster.router.hedges_fired"),
      reg.counter("cluster.router.hedge_wins"),
      reg.counter("cluster.router.hedges_abandoned"),
      reg.counter("cluster.router.failovers"),
      reg.counter("cluster.router.breaker_opens"),
      reg.counter("cluster.router.breaker_rejections"),
      reg.counter("cluster.router.ring_remaps"),
      reg.counter("cluster.router.exhausted"),
      reg.counter("cluster.router.admission_shed"),
      reg.histogram("cluster.router.latency_us"),
  };
  return instruments;
}

struct DrainObs {
  obs::Counter& started;
  obs::Counter& completed;
  obs::Counter& timeouts;
  obs::Counter& handed_off;
  obs::Histogram& duration_ms;
};

DrainObs& drain_obs() {
  obs::Registry& reg = obs::Registry::instance();
  static DrainObs instruments{
      reg.counter("cluster.drain.started"),
      reg.counter("cluster.drain.completed"),
      reg.counter("cluster.drain.timeouts"),
      reg.counter("cluster.drain.handed_off"),
      reg.histogram("cluster.drain.duration_ms"),
  };
  return instruments;
}

/// Per-backend in-flight gauge (dynamic name: one per joined backend).
obs::Gauge& in_flight_gauge(const std::string& name) {
  return obs::Registry::instance().gauge("cluster.router.in_flight." + name);
}

std::chrono::steady_clock::duration to_steady(Duration d) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(d.as_seconds()));
}

}  // namespace

// --- Router ---------------------------------------------------------------

Router::Router(RouterOptions options)
    : options_(options), ring_(options.ring_vnodes) {
  GPPM_CHECK(options_.replicas >= 1, "router needs replicas >= 1");
  if (options_.admission_control) {
    admission_ =
        std::make_unique<serve::AdmissionController>(options_.admission);
  }
  if (options_.health_interval.as_seconds() > 0.0) {
    health_thread_ = std::thread([this] { health_loop(); });
  }
}

Router::~Router() { stop(); }

void Router::stop() {
  if (stopped_.exchange(true)) return;
  if (health_thread_.joinable()) health_thread_.join();
}

void Router::add_backend(std::shared_ptr<Backend> backend) {
  GPPM_CHECK(backend != nullptr, "null backend");
  const std::string name = backend->name();
  obs::Gauge& gauge = in_flight_gauge(name);
  std::unique_lock<std::shared_mutex> lock(membership_mutex_);
  GPPM_CHECK(slots_.find(name) == slots_.end(),
             "backend '" + name + "' already joined");
  slots_.emplace(name, std::make_shared<Slot>(std::move(backend),
                                              options_.breaker, gauge));
  if (ring_.add(name)) {
    ring_remaps_.fetch_add(1);
    router_obs().ring_remaps.add();
  }
}

void Router::remove_backend(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(membership_mutex_);
  slots_.erase(name);
  draining_.erase(name);
  if (ring_.remove(name)) {
    ring_remaps_.fetch_add(1);
    router_obs().ring_remaps.add();
  }
}

DrainReport Router::drain_backend(const std::string& name, Duration timeout) {
  obs::ObsSpan span("cluster.router.drain");
  if (timeout.as_seconds() <= 0.0) timeout = options_.drain_timeout;
  const auto start = std::chrono::steady_clock::now();

  DrainReport report;
  report.backend = name;
  SlotPtr slot;
  {
    std::unique_lock<std::shared_mutex> lock(membership_mutex_);
    const auto live = slots_.find(name);
    if (live != slots_.end()) {
      slot = live->second;
      draining_.emplace(name, slot);
      slots_.erase(live);
      if (ring_.remove(name)) {
        ring_remaps_.fetch_add(1);
        router_obs().ring_remaps.add();
      }
    } else {
      // A second drain of the same name observes the in-progress one;
      // fully unknown names are a completed no-op.
      const auto draining = draining_.find(name);
      if (draining == draining_.end()) {
        report.completed = true;
        report.zero_loss = true;
        return report;
      }
      slot = draining->second;
    }
  }
  drains_.fetch_add(1);
  drain_obs().started.add();

  // Everything still counted on the slot is the handoff set: requests
  // routed before the membership change that will finish on the leaving
  // backend (or fail over off it).
  report.in_flight_at_start = static_cast<std::uint64_t>(
      std::max<std::int64_t>(slot->in_flight.load(std::memory_order_relaxed),
                             0));
  const std::uint64_t failures_before =
      slot->failures.load(std::memory_order_relaxed);

  if (options_.injector != nullptr &&
      options_.injector->should_fire(fault::kSiteClusterDrainSlow)) {
    // A slow drain: the handoff window stretches but correctness must not
    // change — exactly what the chaos suite asserts.
    const double stall_ms =
        options_.injector->magnitude(fault::kSiteClusterDrainSlow);
    std::this_thread::sleep_for(to_steady(Duration::milliseconds(stall_ms)));
  }

  const auto deadline = start + to_steady(timeout);
  const auto poll = to_steady(options_.drain_poll);
  while (slot->in_flight.load(std::memory_order_acquire) > 0) {
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(poll);
  }

  const std::int64_t left = slot->in_flight.load(std::memory_order_acquire);
  report.completed = left == 0;
  const std::uint64_t failures_after =
      slot->failures.load(std::memory_order_relaxed);
  report.handed_off = report.in_flight_at_start;
  report.zero_loss = report.completed && failures_after == failures_before;
  report.duration = Duration::seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());

  {
    std::unique_lock<std::shared_mutex> lock(membership_mutex_);
    draining_.erase(name);
  }
  drain_handed_off_.fetch_add(report.handed_off);
  drain_obs().handed_off.add(report.handed_off);
  drain_obs().duration_ms.record(report.duration.as_seconds() * 1e3);
  if (report.completed) {
    drain_obs().completed.add();
  } else {
    drain_obs().timeouts.add();
  }
  return report;
}

bool Router::draining(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return draining_.find(name) != draining_.end();
}

std::vector<std::string> Router::backends() const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return ring_.members();
}

std::vector<Router::SlotPtr> Router::route(
    const serve::Request& request) const {
  const std::uint64_t key = request_key(request);
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  std::vector<SlotPtr> candidates;
  for (const std::string& name : ring_.replicas(key, options_.replicas)) {
    const auto it = slots_.find(name);
    if (it != slots_.end()) candidates.push_back(it->second);
  }
  return candidates;
}

Duration Router::hedge_delay() const {
  if (latency_.count() < options_.hedge_min_samples) {
    return options_.hedge_max_delay;
  }
  const double q = latency_.quantile(options_.hedge_quantile);
  return Duration::seconds(
      std::clamp(q, options_.hedge_min_delay.as_seconds(),
                 options_.hedge_max_delay.as_seconds()));
}

bool Router::launch(const std::vector<SlotPtr>& candidates, std::size_t& next,
                    bool is_hedge, Flight& out,
                    const serve::Request& request) {
  while (next < candidates.size()) {
    SlotPtr slot = candidates[next++];
    if (!slot->breaker.allow()) {
      breaker_rejections_.fetch_add(1);
      router_obs().breaker_rejections.add();
      continue;
    }
    try {
      Flight flight;
      flight.launched = std::chrono::steady_clock::now();
      flight.future = slot->backend->submit(request);
      flight.slot = slot;
      flight.is_hedge = is_hedge;
      slot->in_flight.fetch_add(1, std::memory_order_relaxed);
      slot->gauge.add(1);
      out = std::move(flight);
      return true;
    } catch (const std::exception&) {
      // Could not even accept (killed node, stopped pool): a synchronous
      // failure, recorded like any other.
      slot->breaker.record_failure();
      slot->failures.fetch_add(1, std::memory_order_relaxed);
      failovers_.fetch_add(1);
      router_obs().failovers.add();
    }
  }
  return false;
}

serve::Response Router::predict(const serve::Request& request) {
  if (!admission_) return predict_admitted(request);

  if (!admission_->try_acquire(request.deadline)) {
    admission_shed_.fetch_add(1);
    router_obs().admission_shed.add();
    serve::Response response;
    response.kind = request.kind;
    response.status = serve::ResponseStatus::Overloaded;
    response.error = "shed by admission control";
    return response;
  }
  const auto start = std::chrono::steady_clock::now();
  try {
    serve::Response response = predict_admitted(request);
    const Duration took = Duration::seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    const bool late = request.deadline.as_seconds() > 0.0 &&
                      took.as_seconds() > request.deadline.as_seconds();
    if (response.status == serve::ResponseStatus::Ok && !late) {
      admission_->release_success(took);
    } else if (response.status == serve::ResponseStatus::Overloaded ||
               response.status == serve::ResponseStatus::DeadlineExceeded ||
               late) {
      // Downstream shed / blowout: the capacity probe overshot.
      admission_->release_congestion(took);
    } else {
      admission_->release_error();
    }
    return response;
  } catch (...) {
    admission_->release_error();
    throw;
  }
}

serve::Response Router::predict_admitted(const serve::Request& request) {
  obs::ObsSpan span("cluster.router.predict");
  if (stopped_.load(std::memory_order_acquire)) {
    throw Error("cluster router is stopped");
  }
  requests_.fetch_add(1);
  router_obs().requests.add();

  const std::vector<SlotPtr> candidates = route(request);
  if (candidates.empty()) {
    throw Error("cluster router has no backends");
  }

  auto finish = [&](Flight& flight) {
    flight.slot->in_flight.fetch_add(-1, std::memory_order_relaxed);
    flight.slot->gauge.add(-1);
  };
  auto typed_failure = [&] {
    exhausted_.fetch_add(1);
    router_obs().exhausted.add();
    serve::Response response;
    response.kind = request.kind;
    response.status = serve::ResponseStatus::InternalError;
    response.error = "all " + std::to_string(candidates.size()) +
                     " replicas failed";
    return response;
  };

  std::size_t next = 0;
  std::vector<Flight> flights;
  {
    Flight primary;
    if (!launch(candidates, next, /*is_hedge=*/false, primary, request)) {
      return typed_failure();
    }
    flights.push_back(std::move(primary));
  }
  const auto hedge_at = flights.front().launched + to_steady(hedge_delay());
  bool hedge_considered = !options_.hedging;

  const auto slice = to_steady(options_.poll_slice);
  while (true) {
    // Poll every outstanding flight for one slice's worth of budget.
    const auto wait =
        slice / static_cast<std::int64_t>(std::max<std::size_t>(
                    flights.size(), 1));
    for (auto it = flights.begin(); it != flights.end();) {
      if (it->future.wait_for(wait) != std::future_status::ready) {
        ++it;
        continue;
      }
      try {
        serve::Response response = it->future.get();
        // Winner: record, abandon the rest, answer.
        it->slot->breaker.record_success();
        const double took =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          it->launched)
                .count();
        latency_.record(took);
        router_obs().latency_us.record(took * 1e6);
        if (it->is_hedge) {
          hedge_wins_.fetch_add(1);
          router_obs().hedge_wins.add();
        }
        finish(*it);
        for (auto other = flights.begin(); other != flights.end(); ++other) {
          if (other == it) continue;
          // The loser keeps computing into a dropped promise-backed
          // future; its duplicate answer is discarded, which is safe
          // because predictions are pure.
          finish(*other);
          hedges_abandoned_.fetch_add(1);
          router_obs().hedges_abandoned.add();
        }
        return response;
      } catch (const std::exception&) {
        it->slot->breaker.record_failure();
        it->slot->failures.fetch_add(1, std::memory_order_relaxed);
        finish(*it);
        failovers_.fetch_add(1);
        router_obs().failovers.add();
        it = flights.erase(it);
      }
    }

    if (flights.empty()) {
      Flight replacement;
      if (!launch(candidates, next, /*is_hedge=*/false, replacement,
                  request)) {
        return typed_failure();
      }
      flights.push_back(std::move(replacement));
      continue;
    }

    if (!hedge_considered &&
        std::chrono::steady_clock::now() >= hedge_at) {
      hedge_considered = true;  // one hedge per request, fired or not
      Flight hedge;
      if (launch(candidates, next, /*is_hedge=*/true, hedge, request)) {
        hedges_fired_.fetch_add(1);
        router_obs().hedges_fired.add();
        flights.push_back(std::move(hedge));
      }
    }
  }
}

void Router::health_loop() {
  const auto interval = to_steady(options_.health_interval);
  const auto tick = std::chrono::milliseconds(5);
  auto next_probe = std::chrono::steady_clock::now();
  while (!stopped_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() < next_probe) {
      std::this_thread::sleep_for(tick);
      continue;
    }
    next_probe = std::chrono::steady_clock::now() + interval;

    std::vector<SlotPtr> snapshot;
    {
      std::shared_lock<std::shared_mutex> lock(membership_mutex_);
      snapshot.reserve(slots_.size());
      for (const auto& [name, slot] : slots_) snapshot.push_back(slot);
    }
    for (const SlotPtr& slot : snapshot) {
      if (stopped_.load(std::memory_order_acquire)) return;
      bool up = false;
      try {
        up = slot->backend->ping();
      } catch (const std::exception&) {
        up = false;
      }
      if (up) {
        // Feed successes only into a probing breaker (Open/HalfOpen):
        // pings against a Closed one would reset the consecutive-failure
        // count from outside the request path and mask a failing backend.
        if (slot->breaker.state() != BreakerState::Closed) {
          if (slot->breaker.allow()) slot->breaker.record_success();
        }
      } else {
        slot->breaker.record_failure();
      }
    }

    // Mirror Closed/HalfOpen -> Open transitions into the obs counter
    // (single-threaded here, so a plain delta is race-free).
    std::uint64_t opens = 0;
    for (const SlotPtr& slot : snapshot) opens += slot->breaker.opens();
    if (opens > reported_opens_) {
      router_obs().breaker_opens.add(opens - reported_opens_);
      reported_opens_ = opens;
    }
  }
}

net::HealthStatus Router::health() const {
  net::HealthStatus status;
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  status.boards = static_cast<std::uint16_t>(slots_.size());
  // Accepting means a request submitted now could be served: the router is
  // running and at least one backend's breaker admits traffic (state()
  // already reports a lapsed-cooldown Open as HalfOpen).
  bool admits = false;
  for (const auto& [name, slot] : slots_) {
    if (slot->breaker.state() != BreakerState::Open) {
      admits = true;
      break;
    }
  }
  status.accepting = admits && !stopped_.load(std::memory_order_acquire);
  return status;
}

BreakerState Router::breaker_state(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  if (const auto it = slots_.find(name); it != slots_.end()) {
    return it->second->breaker.state();
  }
  const auto it = draining_.find(name);
  GPPM_CHECK(it != draining_.end(), "unknown backend '" + name + "'");
  return it->second->breaker.state();
}

std::int64_t Router::in_flight(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  if (const auto it = slots_.find(name); it != slots_.end()) {
    return it->second->in_flight.load(std::memory_order_relaxed);
  }
  if (const auto it = draining_.find(name); it != draining_.end()) {
    return it->second->in_flight.load(std::memory_order_relaxed);
  }
  return 0;
}

RouterStats Router::stats() const {
  RouterStats s;
  s.requests = requests_.load();
  s.hedges_fired = hedges_fired_.load();
  s.hedge_wins = hedge_wins_.load();
  s.hedges_abandoned = hedges_abandoned_.load();
  s.failovers = failovers_.load();
  s.breaker_rejections = breaker_rejections_.load();
  s.ring_remaps = ring_remaps_.load();
  s.exhausted = exhausted_.load();
  s.drains = drains_.load();
  s.drain_handed_off = drain_handed_off_.load();
  s.admission_shed = admission_shed_.load();
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  for (const auto& [name, slot] : slots_) {
    s.breaker_opens += slot->breaker.opens();
  }
  for (const auto& [name, slot] : draining_) {
    s.breaker_opens += slot->breaker.opens();
  }
  return s;
}

}  // namespace gppm::cluster
