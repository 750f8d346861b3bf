// The concurrent model-serving engine.
//
// "Fit once offline, predict at runtime" at traffic scale: the server
// holds the fitted (power, exectime) UnifiedModel pair per board and
// answers Predict / Optimize / Govern requests (see request.hpp) from a
// pool of worker threads (submit) or on the caller's thread (answer).
//
// Internals, front to back:
//   * a BoundedQueue<Job> admission queue — full queue = back-pressure on
//     producers, closed queue = shutdown in progress (reject-new);
//   * a dynamic micro-batcher: each worker drains up to `max_batch` queued
//     jobs in one lock acquisition and groups them by (tenant, gpu, kind),
//     so the registry lookup, the configurable-pair list and (for Govern)
//     the governor lock amortize over the group — batch size adapts to
//     load by construction, there is no artificial batching delay.
//     answer() hands a caller's batch (net::Server: a socket read's
//     PredictRequests) to the same batch routine without the queue;
//   * a sharded LRU PredictionCache keyed on (model fingerprint, counter
//     fingerprint, family, pair) — fitted models are pure functions, so
//     repeated phases are answered without touching the model at all;
//   * multi-tenant routing: a request's tenant id selects a per-tenant
//     model family when one is registered (load_tenant_models), falling
//     back to the board default otherwise, and nonzero tenants can carry a
//     fixed admission quota (set_tenant_quota) that sheds excess load as
//     typed Overloaded answers before it reaches the queue;
//   * a MetricsCollector every worker records into (per-endpoint latency
//     histograms, batch shapes, rejections) plus queue high-water and
//     cache hit/miss accounting, exported as table and CSV.
//
// Robustness contract: a request that cannot be served is *answered*, not
// abandoned — workers never die and futures never carry exceptions.
// Missing models, expired deadlines, shed load and handler failures all
// come back as typed non-Ok ResponseStatus values (see request.hpp).
//
// Shutdown drains: shutdown() closes the queue, every already-admitted
// job is still answered, then the workers join.  Submissions after (or
// racing with) shutdown fail with gppm::Error and count as rejected —
// shutdown is the one condition that still throws, because there is no
// worker left to promise an answer.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/serialization.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace gppm::serve {

struct ServerOptions {
  /// Worker pool size.  One thread already saturates a core on the pure
  /// hit path; scale this with the machine.
  std::size_t worker_threads = 4;
  std::size_t queue_capacity = 4096;
  /// Upper bound of the dynamic micro-batch (clamped to kMaxTrackedBatch).
  std::size_t max_batch = 32;
  /// Total prediction-cache entries; 0 disables caching.
  std::size_t cache_capacity = 1 << 16;
  std::size_t cache_shards = 16;
  /// Governor configuration for the Govern endpoint (policy is taken from
  /// the request; threshold and cap from here).
  core::GovernorOptions governor;
  /// Shed instead of blocking: when true, submit() on a saturated queue
  /// resolves immediately to ResponseStatus::Overloaded rather than
  /// applying back-pressure.  Off by default (closed-loop clients want the
  /// back-pressure).
  bool load_shedding = false;
};

/// Concurrent prediction server over fitted unified models.
class PredictionServer {
 public:
  /// Starts the worker pool immediately.
  explicit PredictionServer(ServerOptions options = {});
  /// Drains and joins (equivalent to shutdown()).
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Register (or hot-swap) the model pair for a board.  Validates the
  /// pairing the same way core::DvfsGovernor does.  Returns the board the
  /// pair was registered under (the models' own board).
  sim::GpuModel load_models(core::UnifiedModel power_model,
                            core::UnifiedModel perf_model);
  /// Load a serialized power/exectime model pair from disk.  Returns the
  /// board the files target.
  sim::GpuModel load_model_files(const std::string& power_path,
                                 const std::string& perf_path);
  bool has_models(sim::GpuModel gpu) const;

  /// Register (or hot-swap) a per-tenant model family for the models'
  /// board.  Tenant 0 is the shared default family — the call is then
  /// identical to load_models().  Requests carrying this tenant id are
  /// answered from this pair; tenants without a registered family for the
  /// requested board fall back to the board default.
  sim::GpuModel load_tenant_models(std::uint32_t tenant,
                                   core::UnifiedModel power_model,
                                   core::UnifiedModel perf_model);
  /// True when `tenant` has its own family registered for `gpu` (does not
  /// consider the tenant-0 fallback).
  bool has_tenant_models(std::uint32_t tenant, sim::GpuModel gpu) const;

  /// Install (quota > 0) or remove (quota == 0) a fixed concurrency quota
  /// for a nonzero tenant.  An over-quota submission is answered with a
  /// typed ResponseStatus::Overloaded immediately — it never occupies a
  /// queue slot, so one tenant's burst cannot starve the others.  Tenant 0
  /// (the shared default) cannot be limited.
  void set_tenant_quota(std::uint32_t tenant, std::size_t quota);

  /// One loaded board as announced to clients (net::Server's InfoResponse).
  struct LoadedModel {
    sim::GpuModel gpu = sim::GpuModel::GTX680;
    std::uint64_t power_fingerprint = 0;
    std::uint64_t perf_fingerprint = 0;
  };
  /// Every board with a registered model pair, with the serialization
  /// fingerprints of both models.
  std::vector<LoadedModel> loaded_models() const;

  /// Enqueue a request.  Blocks while the queue is full (back-pressure)
  /// unless load shedding is on, in which case a saturated queue answers
  /// ResponseStatus::Overloaded immediately.  Throws gppm::Error once the
  /// server is shut down.  The future always resolves to a Response; check
  /// Response::status — serving failures (no models for the board, expired
  /// deadline, handler error) are typed statuses, never exceptions.
  std::future<Response> submit(Request request);

  /// Non-blocking variant for open-loop producers: returns std::nullopt
  /// (and counts a rejection) when the queue is full or closed.
  std::optional<std::future<Response>> try_submit(Request request);

  /// Answer `requests` on the calling thread: responses[i] answers
  /// requests[i].  Each request's deadline clock started at `received`.
  /// The requests run through the same grouping, quota, deadline, cache
  /// and metrics logic as the worker pool, in batches of up to max_batch;
  /// the admission queue and its load shedding are bypassed (the caller
  /// is its own queue).  Throws gppm::Error once the server is shut down.
  void answer(std::span<const Request> requests, std::span<Response> responses,
              std::chrono::steady_clock::time_point received);

  /// Drain and stop: reject new submissions, answer everything already
  /// queued, join the workers.  Idempotent, and safe to call from any
  /// number of threads concurrently — including while other threads are
  /// still submitting (their submits fail with gppm::Error).
  void shutdown();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Requests currently waiting in the admission queue — cheap enough for
  /// a health probe to call on every poll (one mutex acquisition).
  std::size_t queue_depth() const { return queue_.size(); }

  /// Point-in-time metrics (endpoint latencies, batches, queue, cache).
  ServerMetrics metrics() const;

  const ServerOptions& options() const { return options_; }

 private:
  struct Job {
    Request request;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// Quota ticket held while a quota-limited tenant's request is in
    /// flight; finish() releases it according to the response status.
    std::shared_ptr<AdmissionController> quota;
  };
  /// One request of a batch as the batch routine sees it, whichever path
  /// (worker pool or answer()) it came in on.
  struct Ticket {
    const Request* request = nullptr;
    /// Where finish() writes the answer.
    Response* response = nullptr;
    /// Start of the request's deadline clock.
    std::chrono::steady_clock::time_point enqueued;
    std::shared_ptr<AdmissionController> quota;
  };
  /// One governor instance per policy; decide() mutates hysteresis state,
  /// so each slot carries its own lock.
  struct GovernorSlot {
    std::mutex mutex;
    core::DvfsGovernor governor;
    explicit GovernorSlot(core::DvfsGovernor g) : governor(std::move(g)) {}
  };
  /// Everything the workers need for one board, resolved once per group.
  struct ModelEntry {
    /// Owning model family (0 = the shared default).  Used as the cache
    /// key's family so tenant families never alias the default entries.
    std::uint32_t tenant = 0;
    core::UnifiedModel power;
    core::UnifiedModel perf;
    std::uint64_t power_fp = 0;
    std::uint64_t perf_fp = 0;
    std::vector<sim::FrequencyPair> pairs;
    std::array<std::unique_ptr<GovernorSlot>, 3> governors;
  };

  void worker_loop();
  /// The batch routine: record the batch, group tickets by (tenant, gpu,
  /// kind) in order of first arrival, answer every ticket.  count <=
  /// kMaxTrackedBatch; allocates nothing on an all-hit batch.
  void serve_batch(Ticket* tickets, std::size_t count);
  void process_group(ModelEntry& entry, Ticket* const* group,
                     std::size_t count);
  /// Stamp kind + latency, release any tenant quota ticket (success /
  /// congestion / error according to the status) and store the answer.
  void finish(Ticket& ticket, Response response);
  /// Answer DeadlineExceeded if the ticket out-waited its deadline (and
  /// record it); returns true when the ticket was answered.
  bool expire_if_past_deadline(Ticket& ticket);
  /// Acquire the request's tenant quota ticket into `quota`.  Returns
  /// false — with `shed` set to the typed Overloaded answer — when the
  /// quota sheds the request.
  bool admit(const Request& request,
             std::shared_ptr<AdmissionController>& quota, Response& shed);
  Response handle(ModelEntry& entry, const Request& request, bool& cache_hit);
  double cached_predict(const core::UnifiedModel& model,
                        std::uint64_t model_fp, std::uint64_t counters_fp,
                        std::uint64_t family,
                        const profiler::ProfileResult& counters,
                        sim::FrequencyPair pair, bool& all_hits);
  /// Resolve the model entry for (tenant, board): the tenant's own family
  /// when registered, else the board default, else nullptr.
  std::shared_ptr<ModelEntry> entry_for(std::uint32_t tenant,
                                        sim::GpuModel gpu) const;
  std::shared_ptr<AdmissionController> quota_for(std::uint32_t tenant) const;

  ServerOptions options_;
  BoundedQueue<Job> queue_;
  PredictionCache cache_;
  MetricsCollector metrics_;
  mutable std::shared_mutex registry_mutex_;
  std::array<std::shared_ptr<ModelEntry>, sim::kAllGpus.size()> registry_;
  /// Per-tenant families, keyed tenant * board-count + board-slot.
  std::map<std::uint64_t, std::shared_ptr<ModelEntry>> tenant_registry_;
  mutable std::mutex quota_mutex_;
  std::map<std::uint32_t, std::shared_ptr<AdmissionController>> quotas_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::mutex shutdown_mutex_;
};

}  // namespace gppm::serve
