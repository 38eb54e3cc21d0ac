// RoutingService: the one serving core — the coordinator of the paper's
// deployment (§4), parameterised by a shard backend.
//
// One instance owns the dynamic graph, the DTLP master built over it, the
// CANDS baseline index, the solver registry, the epoch protocol, the batch
// workers' partial caches, the submission queue, and the metrics registry,
// and serves the paper's workload (§1, §5): route queries streaming in
// *while* traffic updates stream in. The subgraphs of the DTLP partition are split over
// `num_shards` shards, and the KSP-DG refine step's boundary-pair partials
// go to the shard owning each subgraph through a ShardBackend
// (api/shard_backend.h): by default an in-process slice of this
// coordinator's own DTLP, or the RPC replica set of
// RemoteShardedRoutingService. Answers never depend on the shard count or
// the backend.
//
// Concurrency is epoch-based snapshotting under one write-preferring
// EpochLock, the snapshot lock, plus an atomic committed epoch:
//
//   Query / QueryBatch  a shared hold on the snapshot lock freezes the
//                       master and every shard at the committed epoch; the
//                       partial fetches of every shard run under it. A
//                       QueryBatch takes ONE hold and runs its items on a
//                       parallel loop, where each worker index keeps
//                       per-(shard, worker) partial caches that stay warm
//                       across batches until that shard's weights move.
//   SubmitBatch         async QueryBatch: bounded, admission-controlled
//                       submission queue plus a ticket.
//   ApplyTrafficBatch   exclusive hold (drains every reader), then
//                       Algorithm 2 on the master through
//                       Dtlp::ApplyUpdates, the backend moves the shard
//                       owners, CANDS is rebuilt, and ONE epoch commits.
//
// Every response carries the epoch it was answered at, so clients can detect
// staleness and tests can assert that no query ever observed a half-applied
// batch.
#ifndef KSPDG_API_ROUTING_SERVICE_H_
#define KSPDG_API_ROUTING_SERVICE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "api/batch_ticket.h"
#include "api/ksp_solver.h"
#include "api/routing_options.h"
#include "api/routing_service_interface.h"
#include "api/service_metrics.h"
#include "api/shard_backend.h"
#include "cands/cands.h"
#include "core/epoch_lock.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/submission_queue.h"
#include "core/thread_annotations.h"
#include "dtlp/dtlp.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "partition/shard_assignment.h"

namespace kspdg {

struct RoutingServiceOptions {
  /// Service-wide defaults; any field can be overridden per request.
  RoutingOptions defaults;
  /// DTLP construction knobs (partition size z, level-1 ξ, build threads).
  DtlpOptions dtlp;
  /// Shards the subgraph set is split over (>= 1; shards beyond the
  /// subgraph count own nothing).
  uint32_t num_shards = 1;
  /// Threads answering one QueryBatch (0 = one per hardware thread, capped
  /// at 16; 1 = batches execute inline on the caller).
  unsigned batch_threads = 0;
  /// Batches the async SubmitBatch queue buffers before admission engages:
  /// no-envelope submits block (backpressure), QoS submits shed or displace
  /// queued batch-class work (0 is treated as 1).
  size_t submit_queue_capacity = 8;
  /// Max pending SubmitBatch envelopes one tenant_id may hold at once;
  /// over-quota QoS submits are shed with kResourceExhausted instead of
  /// blocking (0 = unlimited, tenants with an empty id are unmetered).
  size_t per_tenant_quota = 0;
};

class RoutingService : public RoutingServiceInterface {
 public:
  /// Takes ownership of `graph`, partitions it and builds the DTLP
  /// (Algorithm 1), splits its subgraphs over `options.num_shards`
  /// in-process shards, and loads the default backends. Fails if the
  /// defaults are invalid, num_shards == 0, or the partitioner rejects the
  /// graph.
  static Result<std::unique_ptr<RoutingService>> Create(
      Graph graph, RoutingServiceOptions options = {});

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  /// Drains the async submission queue (accepted batches complete), then
  /// releases the shard backend.
  ~RoutingService() override;

  /// Answers q(source, target) — any QueryKind — on the current snapshot
  /// with the backend named by the merged options. Thread-safe; runs
  /// concurrently with other queries and serialises against
  /// ApplyTrafficBatch. A failed partial fetch fails the query with the
  /// fetch's status; the solver's output is discarded.
  Result<RouteResponse> Query(const RouteRequest& request) const override;

  /// Answers a whole batch of queries on ONE snapshot: requests are
  /// validated up front, the snapshot lock is held once, and the valid
  /// requests are solved on a parallel loop of batch_threads workers. Each
  /// worker index keeps per-(shard, worker) partial caches that stay warm
  /// across batches until the shard's weights move,
  /// so repeated boundary pairs cost no new partial Yen runs. Answers are
  /// byte-identical to issuing the requests one by one. Invalid requests
  /// receive per-item statuses without failing the batch. Thread-safe.
  Result<RouteBatchResponse> QueryBatch(
      std::span<const RouteRequest> requests) const override;

  /// Asynchronous QueryBatch: enqueues the batch on the service's bounded
  /// submission queue and returns a ticket immediately, so the caller can
  /// produce the next batch while this one solves. The optional callback
  /// fires on the submission worker thread once the ticket is fulfilled.
  /// Thread-safe; batches execute in submission order and every accepted
  /// batch completes before the service finishes destruction.
  [[nodiscard]] BatchTicket SubmitBatch(
      std::vector<RouteRequest> requests,
      BatchCallback callback = nullptr) const override;

  /// Applies one batch of weight updates atomically across the coordinator
  /// and every shard: the flat weights, the shards' subgraph copies, the
  /// skeleton, and CANDS move to the next epoch together, with all
  /// concurrent queries drained. The batch is validated up front and
  /// rejected as a whole on any bad entry. Thread-safe.
  Result<TrafficBatchResult> ApplyTrafficBatch(
      std::span<const WeightUpdate> updates) override;

  /// Adds a custom backend. Must be called before serving traffic — the
  /// registry reads on the query path take no lock. Once the first
  /// Query/QueryBatch/SubmitBatch has been accepted the registry is frozen
  /// and registration fails with kFailedPrecondition. (Best-effort
  /// enforcement: truly concurrent first-query vs registration remains the
  /// caller's setup bug to avoid.)
  Status RegisterSolver(std::unique_ptr<KspSolver> solver);

  /// Committed epoch (0 until the first batch).
  uint64_t CurrentEpoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Registered backend names, sorted.
  std::vector<std::string> BackendNames() const override {
    return registry_.Names();
  }

  /// Consistent scrape of the service's metrics registry: query totals by
  /// kind/backend, solve-latency histograms, per-shard partial traffic and
  /// cache series ({shard} labels), queue depth, epoch-drain telemetry.
  /// Never blocks queries or updates.
  MetricsSnapshot Metrics() const override { return metrics_.Snapshot(); }

  uint32_t num_shards() const { return assignment_.num_shards; }
  const ShardAssignment& assignment() const { return assignment_; }

  /// Read-only views for tooling; all writes go through ApplyTrafficBatch.
  const Graph& graph() const { return graph_; }
  const Dtlp& dtlp() const { return *dtlp_; }
  const RoutingOptions& defaults() const { return options_.defaults; }

 protected:
  /// Builds the shard backend once the master state exists (the RPC
  /// backend spawns its fleet from the partition and assignment).
  using BackendFactory =
      std::function<Result<std::unique_ptr<ShardBackend>>()>;

  RoutingService(Graph graph, RoutingServiceOptions options);

  /// Builds the master state (DTLP, CANDS, shard assignment, epochs,
  /// pools, metrics, queue), then installs the backend `make_backend`
  /// returns — or the in-process one when it is empty. Call once, right
  /// after construction; the object must already be heap-allocated (the
  /// index keeps a pointer to the service-owned graph).
  Status Init(const BackendFactory& make_backend);

  MetricsRegistry& metrics_registry() { return metrics_; }
  /// The snapshot lock: shared by every read, exclusive for every write of
  /// the snapshot state (a subclass's too).
  EpochLock& snapshot_lock() const { return snapshot_lock_; }

 private:
  /// One shard's coordinator-side state. The subgraph/index storage stays
  /// inside the master Dtlp.
  struct Shard {
    /// Epoch at which this shard's slice (subgraph weight copies) last
    /// actually changed — NOT the committed epoch, which advances on every
    /// traffic batch. Cached partials derive only from the slice, so the
    /// per-(shard, worker) caches flush against this stamp: a batch that
    /// never touched this shard leaves its cached partials warm and valid.
    std::atomic<uint64_t> weights_epoch{0};
    /// Registry handles labelled {shard="<id>"}, wired in Init.
    Counter partial_requests;
    Counter yen_runs;
    Counter cache_hits;
    Counter cache_skips;
    Counter cache_flushes;
  };

  class ShardPartialProvider;

  /// Delegates to PrepareRoutingQuery. Fills `prepared` on success; callers
  /// account rejections themselves.
  Status PrepareQuery(const RouteRequest& request,
                      PreparedRoute* prepared) const;

  /// Solves one prepared request on the pinned snapshot `provider` is bound
  /// to, and records it. A partial-fetch failure recorded by the provider
  /// wins over whatever the solver returned.
  Result<RouteResponse> SolvePrepared(const RouteRequest& request,
                                      PreparedRoute& route,
                                      ShardPartialProvider& provider,
                                      uint64_t epoch) const;

  /// Marks the registry frozen. Only the first accepted query writes the
  /// flag, so the hot path stays read-only afterwards.
  void MarkServing() const {
    if (!serving_.load(std::memory_order_relaxed)) {
      serving_.store(true, std::memory_order_release);
    }
  }

  Graph graph_;
  RoutingServiceOptions options_;
  /// Owns every metric cell the members below hold handles into. Declared
  /// before them so it is destroyed LAST — in particular after
  /// submit_queue_, whose destructor still drains batches that bump
  /// counters.
  MetricsRegistry metrics_;
  std::unique_ptr<Dtlp> dtlp_;
  /// The CANDS baseline index behind the "cands" backend (exact
  /// boundary-pair shortest paths per subgraph); coordinator-owned like the
  /// flat weights and rebuilt-on-update inside ApplyTrafficBatch — the
  /// paper's Figures 40-41 cost contrast, reported in TrafficBatchResult.
  std::unique_ptr<CandsIndex> cands_;
  SolverRegistry registry_;
  /// Set by the first served query; freezes the registry (see
  /// RegisterSolver).
  mutable std::atomic<bool> serving_{false};
  ShardAssignment assignment_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Readers hold it shared, ApplyTrafficBatch exclusively. Mutable so the
  /// const query paths can take it; it carries no logical state.
  mutable EpochLock snapshot_lock_{"RoutingService::snapshot_lock"};
  /// Committed epoch: advanced only under the exclusive snapshot lock,
  /// readable without it (CurrentEpoch, the epoch gauge).
  std::atomic<uint64_t> epoch_{0};

  /// Serialises the parallel section of concurrent QueryBatch calls and
  /// guards the caching providers below, one per worker index of the batch
  /// loop. Taken BEFORE the snapshot lock so queued batches wait outside
  /// the snapshot section — a waiting traffic writer then drains at most
  /// one in-flight batch, not the whole queue.
  mutable Mutex batch_mu_{"RoutingService::batch_mu_"};
  mutable std::vector<std::unique_ptr<ShardPartialProvider>> batch_providers_
      GUARDED_BY(batch_mu_);

  /// Query/update handles into metrics_.
  ServiceMetrics svc_metrics_;
  Counter single_shard_queries_;
  Counter cross_shard_queries_;
  Counter direct_partials_;
  Counter scattered_partials_;
  Counter partial_fetch_errors_;

  /// Where partial fetches and traffic slices go. Declared after every
  /// member it may read and before submit_queue_, so the queue drains
  /// before the backend (and, for the RPC backend, its fleet) goes away.
  std::unique_ptr<ShardBackend> backend_;

  /// Async SubmitBatch queue. Declared last so it is destroyed FIRST:
  /// destruction drains the accepted batches, which still run QueryBatch
  /// against the members above.
  std::unique_ptr<SubmissionQueue> submit_queue_;
};

}  // namespace kspdg

#endif  // KSPDG_API_ROUTING_SERVICE_H_
