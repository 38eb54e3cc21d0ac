#include "api/routing_service.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/timer.h"
#include "ksp/path.h"
#include "kspdg/partial_provider.h"

namespace kspdg {

namespace {

uint64_t PairKey(VertexId a, VertexId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// The in-process backend: every shard is a slice of the coordinator's own
/// DTLP, so a fetch computes inline under the caller's snapshot hold, and
/// the coordinator's master apply is every shard's whole update.
class InProcessShardBackend final : public ShardBackend {
 public:
  explicit InProcessShardBackend(const Dtlp& dtlp) : dtlp_(dtlp) {}

  Status FetchPartials(ShardId /*shard*/, std::span<const SubgraphId> owned,
                       VertexId x, VertexId y, size_t depth,
                       uint64_t /*epoch*/,
                       std::vector<SubgraphPartials>* lists) const override {
    const Partition& partition = dtlp_.partition();
    for (SubgraphId sgid : owned) {
      lists->push_back({sgid, LocalPartialProvider::PartialsInSubgraph(
                                  partition.subgraphs[sgid], x, y, depth)});
    }
    return Status::OK();
  }

 private:
  const Dtlp& dtlp_;
};

/// Distinct boundary pairs each per-(shard, worker) partial cache may
/// memoise between flushes. Past the cap, requests still compute but stop
/// caching — correctness never depends on a hit.
constexpr size_t kPartialCachePairs = 4096;

}  // namespace

// The one PartialProvider of the serving core. Routes each boundary-pair
// request to the shard(s) owning the subgraphs that contain the pair: a
// pair owned by one shard goes directly to it, a pair spanning shards
// scatters to every owner, and the per-subgraph lists are gathered through
// MergeSubgraphPartials — the same merge LocalPartialProvider uses — so the
// answer is identical to the inline computation whatever the shard count
// or backend.
//
// A caching provider (one per batch worker, alive across batches) memoises
// the lists per (shard, x, y, depth): an entry is reused only when the
// requested depth matches exactly, or when the cached lists are complete
// (exhausted at a depth <= the request, so a fresh run would return the very
// same lists). Either way the replay feeds the merge the identical inputs a
// fresh fetch would — reusing *deeper* lists instead would not be safe,
// since InsertTopK's ordering under distance ties is sensitive to the extra
// entries. Each shard's slice of the cache is stamped with the shard's
// weights epoch and flushed when it moves. A single Query builds a
// non-caching provider: QueryContext already reuses lists within one query,
// and a cache that dies with the query would only copy them.
//
// Failure: the first failed fetch poisons the query — the provider records
// the status, answers this and every later request of the query with an
// empty exhausted result (stopping the depth schedule cold), and the service
// discards the solver's output in favour of the recorded error.
class RoutingService::ShardPartialProvider : public PartialProvider {
 public:
  ShardPartialProvider(const RoutingService& service, bool cache)
      : service_(service),
        caches_(cache ? service.shards_.size() : 0),
        shard_touched_(service.shards_.size(), 0) {}

  /// Binds the epoch the caller pinned: every ComputePartials call until
  /// the next bind runs under that shared snapshot hold.
  void BindEpoch(uint64_t epoch) { epoch_ = epoch; }

  /// Resets the per-query state (touch tracking and error; caches
  /// persist).
  void BeginQuery() {
    std::fill(shard_touched_.begin(), shard_touched_.end(), 0);
    error_ = Status::OK();
  }

  /// First fetch failure of the current query (OK if none).
  const Status& error() const { return error_; }

  /// Distinct shards the current query's partial requests landed on.
  size_t ShardsTouched() const {
    size_t n = 0;
    for (char touched : shard_touched_) n += touched != 0;
    return n;
  }

  PartialResult ComputePartials(VertexId x, VertexId y,
                                size_t depth) override {
    if (!error_.ok()) return Poisoned();
    const Partition& partition = service_.dtlp_->partition();
    // Group the owning subgraphs by shard. Boundary pairs live in at most a
    // handful of subgraphs, so linear scans beat any map.
    std::vector<std::pair<ShardId, std::vector<SubgraphId>>> groups;
    for (SubgraphId sgid : partition.SubgraphsContainingBoth(x, y)) {
      ShardId shard = service_.assignment_.shard_of_subgraph[sgid];
      auto it =
          std::find_if(groups.begin(), groups.end(),
                       [shard](const auto& g) { return g.first == shard; });
      if (it == groups.end()) {
        groups.push_back({shard, {sgid}});
      } else {
        it->second.push_back(sgid);
      }
    }
    std::vector<SubgraphPartials> gathered;
    size_t fresh_runs = 0;
    const uint64_t key = PairKey(x, y);
    for (const auto& [shard_id, owned] : groups) {
      const Shard& shard = *service_.shards_[shard_id];
      shard_touched_[shard_id] = 1;
      ShardCache* cache = caches_.empty() ? nullptr : &caches_[shard_id];
      if (cache != nullptr) {
        // Stable under the snapshot hold, which excludes writers.
        const uint64_t weights_epoch =
            shard.weights_epoch.load(std::memory_order_acquire);
        if (cache->epoch != weights_epoch) {
          if (!cache->entries.empty()) {
            shard.cache_flushes.Increment();
            cache->entries.clear();
          }
          cache->epoch = weights_epoch;
        }
        if (const CacheEntry* hit = cache->Find(key, depth)) {
          shard.cache_hits.Increment();
          gathered.insert(gathered.end(), hit->lists.begin(),
                          hit->lists.end());
          continue;
        }
      }
      std::vector<SubgraphPartials> lists;
      Status fetched = service_.backend_->FetchPartials(shard_id, owned, x, y,
                                                        depth, epoch_, &lists);
      if (fetched.ok() && lists.size() != owned.size()) {
        fetched = Status::Internal(
            "shard " + std::to_string(shard_id) + " returned " +
            std::to_string(lists.size()) + " partial lists for " +
            std::to_string(owned.size()) + " subgraphs");
      }
      if (!fetched.ok()) {
        error_ = std::move(fetched);
        return Poisoned();
      }
      shard.partial_requests.Increment();
      shard.yen_runs.Increment(owned.size());
      fresh_runs += owned.size();
      if (cache == nullptr) {
        std::move(lists.begin(), lists.end(), std::back_inserter(gathered));
        continue;
      }
      gathered.insert(gathered.end(), lists.begin(), lists.end());
      // Bound the memoisation: between flushes a read-heavy workload could
      // otherwise accumulate lists for every boundary pair it ever touched.
      // Past the cap, new pairs are computed but not cached (correctness
      // never depends on a hit).
      if (cache->entries.size() < kPartialCachePairs ||
          cache->entries.count(key) != 0) {
        CacheEntry entry;
        entry.depth = depth;
        entry.exhausted = std::all_of(
            lists.begin(), lists.end(), [depth](const SubgraphPartials& l) {
              return l.paths.size() < depth;
            });
        entry.lists = std::move(lists);
        cache->entries[key].push_back(std::move(entry));
      } else {
        shard.cache_skips.Increment();
      }
    }
    PartialResult result = MergeSubgraphPartials(std::move(gathered), depth);
    // Cached lists cost no Yen invocations; report only the fresh work.
    result.yen_runs = fresh_runs;
    if (groups.size() == 1) {
      service_.direct_partials_.Increment();
    } else if (groups.size() > 1) {
      service_.scattered_partials_.Increment();
    }
    return result;
  }

 private:
  struct CacheEntry {
    size_t depth = 0;
    /// Every list came back shorter than `depth`: the lists are complete,
    /// so they equal a fresh computation at ANY depth >= this one.
    bool exhausted = false;
    std::vector<SubgraphPartials> lists;
  };

  struct ShardCache {
    /// Shard::weights_epoch the entries were computed at.
    uint64_t epoch = 0;
    /// (x, y) -> entries at the distinct depths requested so far (the
    /// KSP-DG depth schedule is k, 2k, 4k, ... — a handful per pair).
    std::unordered_map<uint64_t, std::vector<CacheEntry>> entries;

    const CacheEntry* Find(uint64_t key, size_t depth) const {
      auto it = entries.find(key);
      if (it == entries.end()) return nullptr;
      for (const CacheEntry& entry : it->second) {
        if (entry.depth == depth ||
            (entry.exhausted && entry.depth <= depth)) {
          return &entry;
        }
      }
      return nullptr;
    }
  };

  static PartialResult Poisoned() {
    PartialResult failed;
    failed.exhausted = true;  // stop the depth schedule; the query is lost
    return failed;
  }

  const RoutingService& service_;
  uint64_t epoch_ = 0;
  /// One cache per shard; empty for a non-caching provider.
  std::vector<ShardCache> caches_;
  std::vector<char> shard_touched_;
  Status error_;
};

RoutingService::BatchWorker::BatchWorker() = default;
RoutingService::BatchWorker::BatchWorker(BatchWorker&&) noexcept = default;
RoutingService::BatchWorker& RoutingService::BatchWorker::operator=(
    BatchWorker&&) noexcept = default;
RoutingService::BatchWorker::~BatchWorker() = default;

RoutingService::RoutingService(Graph graph, RoutingServiceOptions options)
    : graph_(std::move(graph)), options_(std::move(options)) {}

RoutingService::~RoutingService() = default;

Result<std::unique_ptr<RoutingService>> RoutingService::Create(
    Graph graph, RoutingServiceOptions options) {
  std::unique_ptr<RoutingService> service(
      new RoutingService(std::move(graph), std::move(options)));
  KSPDG_RETURN_NOT_OK(service->Init(nullptr));
  return service;
}

Status RoutingService::Init(const BackendFactory& make_backend) {
  KSPDG_RETURN_NOT_OK(options_.defaults.Validate());
  if (options_.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  Result<std::unique_ptr<Dtlp>> dtlp = Dtlp::Build(graph_, options_.dtlp);
  if (!dtlp.ok()) return dtlp.status();
  dtlp_ = std::move(dtlp).value();
  Result<std::unique_ptr<CandsIndex>> cands =
      BuildCandsIndex(graph_, options_.dtlp);
  if (!cands.ok()) return cands.status();
  cands_ = std::move(cands).value();
  Result<ShardAssignment> assignment =
      AssignShards(dtlp_->partition(), options_.num_shards);
  if (!assignment.ok()) return assignment.status();
  assignment_ = std::move(assignment).value();
  registry_ = SolverRegistry::Default();

  // Wire instrumentation before any traffic: every hot-path handle is
  // resolved here, so serving pays one relaxed fetch_add per event and
  // never touches the registry mutex.
  for (ShardId shard = 0; shard < assignment_.num_shards; ++shard) {
    auto owned = std::make_unique<Shard>();
    const MetricLabels labels = {{"shard", std::to_string(shard)}};
    owned->partial_requests =
        metrics_.GetCounter("partial_requests_total", labels);
    owned->yen_runs = metrics_.GetCounter("yen_runs_total", labels);
    owned->cache_hits = metrics_.GetCounter("partial_cache_hits_total", labels);
    owned->cache_skips =
        metrics_.GetCounter("partial_cache_skips_total", labels);
    owned->cache_flushes =
        metrics_.GetCounter("partial_cache_flushes_total", labels);
    shards_.push_back(std::move(owned));
  }
  svc_metrics_.Init(metrics_, registry_.Names());
  single_shard_queries_ = metrics_.GetCounter("single_shard_queries_total");
  cross_shard_queries_ = metrics_.GetCounter("cross_shard_queries_total");
  direct_partials_ = metrics_.GetCounter("direct_partial_requests_total");
  scattered_partials_ = metrics_.GetCounter("scattered_partial_requests_total");
  partial_fetch_errors_ = metrics_.GetCounter("partial_fetch_errors_total");
  snapshot_lock_.InstrumentWriter(
      metrics_.GetCounter("epoch_writer_drains_total"),
      metrics_.GetHistogram("epoch_writer_wait_micros", {},
                            LatencyBucketsMicros()));
  metrics_.AddGaugeCallback("epoch", {}, [this] {
    return static_cast<int64_t>(CurrentEpoch());
  });

  batch_pool_ =
      std::make_unique<ThreadPool>(DefaultBatchThreads(options_.batch_threads));
  {
    MutexLock batch_guard(batch_mu_);
    batch_workers_.resize(batch_pool_->num_threads());
    for (BatchWorker& worker : batch_workers_) {
      worker.provider =
          std::make_unique<ShardPartialProvider>(*this, /*cache=*/true);
    }
  }

  SubmissionQueueMetrics queue_metrics;
  queue_metrics.enqueue_blocked_total =
      metrics_.GetCounter("submission_queue_enqueue_blocked_total");
  queue_metrics.enqueue_block_micros = metrics_.GetHistogram(
      "submission_queue_enqueue_block_micros", {}, LatencyBucketsMicros());
  queue_metrics.shed_deadline_total =
      metrics_.GetCounter("submission_queue_shed_deadline_total");
  queue_metrics.shed_quota_total =
      metrics_.GetCounter("submission_queue_shed_quota_total");
  AdmissionOptions admission;
  admission.per_tenant_quota = options_.per_tenant_quota;
  submit_queue_ = std::make_unique<SubmissionQueue>(
      options_.submit_queue_capacity, /*num_workers=*/1,
      std::move(queue_metrics), admission);
  SubmissionQueue* queue = submit_queue_.get();
  metrics_.AddGaugeCallback("submission_queue_depth", {}, [queue] {
    return static_cast<int64_t>(queue->pending());
  });
  for (RequestPriority priority :
       {RequestPriority::kInteractive, RequestPriority::kNormal,
        RequestPriority::kBatch}) {
    metrics_.AddGaugeCallback(
        "submission_queue_depth_by_priority",
        {{"priority", PriorityName(priority)}}, [queue, priority] {
          return static_cast<int64_t>(queue->pending(priority));
        });
  }
  metrics_.AddCounterCallback("submission_queue_submitted_total", {},
                              [queue] { return queue->submitted(); });
  metrics_.AddCounterCallback("submission_queue_completed_total", {},
                              [queue] { return queue->completed(); });

  if (!make_backend) {
    backend_ = std::make_unique<InProcessShardBackend>(*dtlp_);
    return Status::OK();
  }
  Result<std::unique_ptr<ShardBackend>> backend = make_backend();
  if (!backend.ok()) return backend.status();
  backend_ = std::move(backend).value();
  return Status::OK();
}

Status RoutingService::RegisterSolver(std::unique_ptr<KspSolver> solver) {
  if (serving_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "RegisterSolver must run before the first query is served");
  }
  const std::string name(solver->name());
  KSPDG_RETURN_NOT_OK(registry_.Register(std::move(solver)));
  // Pre-register the backend's queries_total{kind,backend} cells so the
  // query hot path stays registration-free.
  svc_metrics_.AddBackend(metrics_, name);
  return Status::OK();
}

Status RoutingService::PrepareQuery(const RouteRequest& request,
                                    PreparedRoute* prepared) const {
  return PrepareRoutingQuery(registry_, options_.defaults, graph_, request,
                             prepared);
}

Result<RouteResponse> RoutingService::SolvePrepared(
    const RouteRequest& request, PreparedRoute& route,
    ShardPartialProvider& provider, SolverScratch* scratch,
    uint64_t epoch) const {
  SolverInput input;
  input.graph = &graph_;
  input.dtlp = dtlp_.get();
  input.partials = &provider;  // DTLP-free backends ignore it
  input.cands = cands_.get();
  input.source = request.source;
  input.target = request.target;
  // Each request is solved exactly once, so its merged options move
  // through the input and into the response.
  input.options = std::move(route.merged);
  provider.BeginQuery();
  WallTimer timer;
  Result<KspQueryResult> solved = route.solver->Solve(input, scratch);
  if (!provider.error().ok()) {
    // A partial fetch failed mid-solve: whatever the solver produced is
    // untrustworthy. Degrade to the fetch error, never a wrong answer.
    partial_fetch_errors_.Increment();
    return provider.error();
  }
  if (!solved.ok()) return solved.status();
  // The kDiverseKsp filter is a pure function of the candidate list, so
  // the whole answer is one epoch's.
  RouteResponse response = FinishRouteResponse(
      route.kind, route.requested_k, std::move(input.options),
      graph_.directed(), std::move(solved).value());
  response.stats.solve_micros = timer.ElapsedMicros();
  response.epoch = epoch;
  size_t touched = provider.ShardsTouched();
  if (touched == 1) {
    single_shard_queries_.Increment();
  } else if (touched > 1) {
    cross_shard_queries_.Increment();
  }
  svc_metrics_.RecordQuery(route.kind, response.backend,
                           response.stats.solve_micros);
  return response;
}

Result<RouteResponse> RoutingService::Query(const RouteRequest& request) const {
  MarkServing();
  PreparedRoute prepared;
  Status status = PrepareQuery(request, &prepared);
  if (!status.ok()) {
    svc_metrics_.RecordQueryFailure(status);
    return status;
  }
  ShardPartialProvider provider(*this, /*cache=*/false);
  EpochReaderLock pin(snapshot_lock_);
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  provider.BindEpoch(epoch);
  Result<RouteResponse> response =
      SolvePrepared(request, prepared, provider, nullptr, epoch);
  if (!response.ok()) svc_metrics_.RecordQueryFailure(response.status());
  return response;
}

Result<RouteBatchResponse> RoutingService::QueryBatch(
    std::span<const RouteRequest> requests) const {
  MarkServing();
  RouteBatchResponse batch;
  batch.items.resize(requests.size());

  // Phase 1 (outside any lock): validate every request and resolve its
  // backend. Failures become per-item statuses, never a batch failure.
  struct Prepared {
    size_t index = 0;
    PreparedRoute route;
  };
  std::vector<Prepared> work;
  work.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Prepared prepared;
    prepared.index = i;
    Status status = PrepareQuery(requests[i], &prepared.route);
    if (!status.ok()) {
      batch.items[i].status = std::move(status);
      continue;
    }
    work.push_back(std::move(prepared));
  }

  // Phase 2: group by backend so the contiguous chunks a worker claims
  // mostly share a solver and its scratch stays warm across them.
  std::stable_sort(work.begin(), work.end(),
                   [](const Prepared& a, const Prepared& b) {
                     return a.route.solver->name() < b.route.solver->name();
                   });

  // Phase 3 (snapshot section): ONE shared hold covers every solve, so the
  // whole batch is answered at a single epoch — a concurrent
  // ApplyTrafficBatch waits on the snapshot lock and can never tear it.
  MutexLock batch_guard(batch_mu_);
  {
    EpochReaderLock pin(snapshot_lock_);
    WallTimer timer;
    const uint64_t epoch = epoch_.load(std::memory_order_acquire);
    batch.epoch = epoch;
    for (BatchWorker& worker : batch_workers_) {
      worker.provider->BindEpoch(epoch);
    }
    // The pool threads do not hold batch_mu_ — they are handed disjoint
    // worker slots while this thread keeps the whole batch section locked,
    // which the analysis cannot see through the lambda. The raw pointer is
    // the deliberate escape hatch.
    BatchWorker* const pool_workers = batch_workers_.data();
    // Chunks large enough to amortise claiming, small enough to balance the
    // (highly skewed) per-query solve costs across workers.
    size_t chunk = std::max<size_t>(
        1, work.size() / (4 * size_t{batch_pool_->num_threads()}));
    batch_pool_->ParallelFor(
        work.size(), chunk, [&](unsigned worker_id, size_t j) {
          Prepared& p = work[j];
          BatchWorker& worker = pool_workers[worker_id];
          Result<RouteResponse> response = SolvePrepared(
              requests[p.index], p.route, *worker.provider,
              worker.arena.Get(p.route.solver), epoch);
          RouteBatchItem& item = batch.items[p.index];
          if (response.ok()) {
            item.response = std::move(response).value();
          } else {
            item.status = response.status();
          }
        });
    batch.batch_micros = timer.ElapsedMicros();
  }

  // Accepted items were recorded per solve (kind/backend/latency); the
  // admission classification and the rejection/shed totals settle here.
  svc_metrics_.FinalizeBatchAdmission(batch);
  return batch;
}

BatchTicket RoutingService::SubmitBatch(std::vector<RouteRequest> requests,
                                        BatchCallback callback) const {
  MarkServing();
  return BatchTicket::SubmitTo(*submit_queue_, *this, std::move(requests),
                               std::move(callback),
                               svc_metrics_.admission_view());
}

Result<TrafficBatchResult> RoutingService::ApplyTrafficBatch(
    std::span<const WeightUpdate> updates) {
  // Validate before taking any lock: a rejected batch must leave every
  // snapshot untouched (and NumEdges is immutable, so no lock is needed).
  KSPDG_RETURN_NOT_OK(ValidateWeightUpdates(graph_.NumEdges(), updates));
  // Updates per shard: which shards' cached partials go stale, and what
  // each shard owner must report having applied.
  const Partition& partition = dtlp_->partition();
  std::vector<uint64_t> updates_of_shard(shards_.size(), 0);
  for (const WeightUpdate& update : updates) {
    SubgraphId sgid = partition.subgraph_of_edge[update.edge];
    if (sgid == kInvalidSubgraph) continue;
    ++updates_of_shard[assignment_.shard_of_subgraph[sgid]];
  }

  // Exclusive snapshot section: drain every reader, then move the master
  // state and every shard owner to the next epoch together.
  EpochWriterLock lock(snapshot_lock_);
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  // Flat graph weights (the baselines' view of the snapshot), then
  // Algorithm 2 on the DTLP master.
  for (const WeightUpdate& update : updates) graph_.SetWeight(update);
  TrafficBatchResult result;
  result.dtlp = dtlp_->ApplyUpdates(updates);
  for (size_t si = 0; si < shards_.size(); ++si) {
    // The slice changed: invalidate this shard's cached partials.
    // Untouched shards keep their stamp, so their caches stay warm.
    if (updates_of_shard[si] > 0) {
      shards_[si]->weights_epoch.store(epoch, std::memory_order_release);
    }
  }
  backend_->Apply(epoch, updates, updates_of_shard);
  // CANDS maintenance: every touched subgraph's exact boundary-pair
  // shortest paths are recomputed — deliberately inside the exclusive
  // window so the bench measures the paper's rebuild-vs-incremental
  // contrast on the same serving path.
  WallTimer cands_timer;
  result.cands = cands_->ApplyUpdates(updates);
  result.cands_micros = cands_timer.ElapsedMicros();
  epoch_.store(epoch, std::memory_order_release);

  result.epoch = epoch;
  svc_metrics_.RecordTrafficBatch(updates.size());
  return result;
}

}  // namespace kspdg
