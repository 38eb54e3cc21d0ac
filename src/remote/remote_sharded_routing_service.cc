#include "remote/remote_sharded_routing_service.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/shard_backend.h"
#include "core/epoch_lock.h"
#include "core/mutex.h"
#include "core/parallel_for.h"
#include "core/thread_annotations.h"
#include "partition/shard_assignment.h"
#include "rpc/client.h"
#include "rpc/wire.h"

extern char** environ;

namespace kspdg {

namespace {

/// Per-attempt deadline for load-graph and epoch-prepare RPCs: a load
/// partitions the whole graph, so it can legitimately outlast the
/// query-path deadline.
constexpr int64_t kApplyDeadlineMs = 120'000;

/// See RemoteWorkerOptions::worker_binary: explicit path, else the
/// KSPDG_WORKER_BIN env override, else "shard_worker" next to the current
/// executable (every CMake target lands in the build root).
std::string ResolveWorkerBinary(const std::string& configured) {
  if (!configured.empty()) return configured;
  const char* env = std::getenv("KSPDG_WORKER_BIN");
  if (env != nullptr && env[0] != '\0') return env;
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "shard_worker";
  buf[n] = '\0';
  std::string self(buf);
  size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "shard_worker";
  return self.substr(0, slash + 1) + "shard_worker";
}

std::string ResolveSocketDir(const std::string& configured) {
  if (!configured.empty()) return configured;
  const char* tmp = std::getenv("TMPDIR");
  if (tmp != nullptr && tmp[0] != '\0') return tmp;
  return "/tmp";
}

/// Distinguishes sockets of distinct service instances within one process
/// (and, with the pid, across processes sharing a socket dir).
std::atomic<uint64_t> g_instance_counter{0};

}  // namespace

// The RPC replica-set shard backend: num_replicas shard_worker processes
// per shard, each holding its shard's subgraph weight copies. Every method
// that touches the fleet's membership or epoch (Apply, RestartDeadWorkers)
// runs under the coordinator's exclusive snapshot lock, which is their only
// guard.
class ReplicaFleet final : public ShardBackend {
 public:
  ReplicaFleet(const Graph& graph, const ShardAssignment& assignment,
               MetricsRegistry& metrics,
               RemoteShardedRoutingServiceOptions options)
      : graph_(graph),
        assignment_(assignment),
        options_(std::move(options)),
        next_replica_(assignment.num_shards) {
    const std::string socket_dir = ResolveSocketDir(options_.remote.socket_dir);
    const uint64_t instance =
        g_instance_counter.fetch_add(1, std::memory_order_relaxed);
    RpcClientOptions client_options;
    client_options.deadline_ms = options_.remote.rpc_deadline_ms;
    client_options.max_retries = options_.remote.rpc_max_retries;
    client_options.backoff_ms = options_.remote.rpc_backoff_ms;
    for (ShardId shard = 0; shard < assignment_.num_shards; ++shard) {
      for (uint32_t replica = 0; replica < options_.num_replicas; ++replica) {
        auto worker = std::make_unique<Worker>();
        worker->shard = shard;
        worker->replica = replica;
        worker->socket_path = socket_dir + "/kspdg-" +
                              std::to_string(static_cast<long>(getpid())) +
                              "-" + std::to_string(instance) + "-s" +
                              std::to_string(shard) + "r" +
                              std::to_string(replica) + ".sock";
        worker->client =
            std::make_unique<RpcClient>(worker->socket_path, client_options);
        // Per-replica read share plus callbacks over the client's
        // (monotonic, see RpcClient) transport atomics — the registry is
        // the export surface, the client stays the owner.
        const MetricLabels labels = {{"shard", std::to_string(shard)},
                                     {"replica", std::to_string(replica)}};
        worker->reads = metrics.GetCounter("reads_by_replica_total", labels);
        RpcClient* client = worker->client.get();
        metrics.AddCounterCallback("rpc_calls_total", labels,
                                   [client] { return client->calls(); });
        metrics.AddCounterCallback("rpc_retries_total", labels,
                                   [client] { return client->retries(); });
        metrics.AddCounterCallback(
            "rpc_deadline_expired_total", labels,
            [client] { return client->deadline_expired(); });
        metrics.AddCounterCallback("rpc_bytes_sent_total", labels,
                                   [client] { return client->bytes_sent(); });
        metrics.AddCounterCallback(
            "rpc_bytes_received_total", labels,
            [client] { return client->bytes_received(); });
        Worker* raw = worker.get();
        metrics.AddGaugeCallback("worker_alive", labels, [raw] {
          return raw->alive.load(std::memory_order_acquire) ? 1 : 0;
        });
        metrics.AddGaugeCallback("replica_epoch", labels, [raw] {
          return static_cast<int64_t>(
              raw->epoch.load(std::memory_order_relaxed));
        });
        metrics.AddCounterCallback("replica_catchups_total", labels, [raw] {
          return raw->catchups.load(std::memory_order_relaxed);
        });
        workers_.push_back(std::move(worker));
      }
    }
    metrics.AddCounterCallback("worker_restarts_total", {}, [this] {
      uint64_t restarts = 0;
      for (const std::unique_ptr<Worker>& worker : workers_) {
        restarts += worker->restarts.load(std::memory_order_relaxed);
      }
      return restarts;
    });
  }

  /// Shuts the workers down (graceful Shutdown RPC first, SIGKILL after a
  /// grace period) and reaps every child process. The core drains its
  /// submission queue before destroying its backend.
  ~ReplicaFleet() override {
    for (std::unique_ptr<Worker>& worker : workers_) StopWorker(*worker);
  }

  /// Spawns every worker and ships it the graph. On failure the destructor
  /// reaps the workers already started.
  Status Start() {
    worker_binary_ = ResolveWorkerBinary(options_.remote.worker_binary);
    if (access(worker_binary_.c_str(), X_OK) != 0) {
      return Status::InvalidArgument(
          "shard_worker binary not executable at '" + worker_binary_ +
          "' (set RemoteWorkerOptions::worker_binary or KSPDG_WORKER_BIN)");
    }
    for (std::unique_ptr<Worker>& worker : workers_) {
      KSPDG_RETURN_NOT_OK(SpawnAndLoadWorker(*worker));
    }
    return Status::OK();
  }

  // The fetch starts at the shard's round-robin cursor and walks the
  // replica set, skipping replicas that are dead or lagging the pinned
  // epoch and failing over on transport errors. Succeeds as long as ANY
  // replica can serve.
  Status FetchPartials(ShardId shard, std::span<const SubgraphId> owned,
                       VertexId x, VertexId y, size_t depth, uint64_t epoch,
                       std::vector<SubgraphPartials>* lists) const override {
    const uint32_t replicas = options_.num_replicas;
    const uint64_t start =
        next_replica_[shard].fetch_add(1, std::memory_order_relaxed);
    PartialsRequest request;
    request.epoch = epoch;
    request.x = x;
    request.y = y;
    request.depth = depth;
    request.sgids.assign(owned.begin(), owned.end());
    const std::string payload = request.Encode();
    Status last_error;  // stays OK while every replica is merely skipped
    for (uint32_t i = 0; i < replicas; ++i) {
      const Worker& worker =
          WorkerAt(shard, static_cast<uint32_t>((start + i) % replicas));
      if (!worker.alive.load(std::memory_order_acquire)) continue;
      // A lagging replica (missed one or more epochs) is out of the read
      // rotation until it catches up; the worker-side epoch check would
      // reject the request anyway, this just skips the round trip.
      if (worker.epoch.load(std::memory_order_acquire) != epoch) continue;
      Status fetched = FetchFromWorker(worker, payload, owned, lists);
      if (fetched.ok()) {
        worker.reads.Increment();
        return Status::OK();
      }
      last_error = std::move(fetched);  // fail over to the next sibling
    }
    if (last_error.ok()) {
      return Status::Unavailable(
          "all replicas of shard " + std::to_string(shard) +
          " are dead or lagging; the shard is unavailable until restarted");
    }
    return last_error;
  }

  // The whole replication of one traffic batch, in one round: fan the FULL
  // batch out to every replica that is alive at the preceding epoch (each
  // writes the updates its subgraphs own into their weight copies). A
  // failed apply marks the replica dead (its reads fail over to siblings
  // until restart) instead of failing or stalling the batch. A replica
  // already lagging is skipped — applies run strictly in epoch order — and
  // stays out of the read rotation until the next catch-up.
  void Apply(uint64_t epoch, std::span<const WeightUpdate> updates,
             std::span<const uint64_t> updates_of_shard) override {
    // The master graph already carries this batch's weights.
    epoch_ = epoch;
    if (options_.remote.auto_restart) {
      // Revive dead replicas and reload the ones too far behind to take
      // this batch's prepare. They load the master weights, so they land
      // at `epoch` and the fan-out below skips them; replicas at epoch - 1
      // take the prepare as usual. Best-effort: a replica that stays dead
      // degrades to sibling reads (or per-query errors once the whole
      // shard is dead), not this batch.
      (void)ReviveWorkers(/*min_epoch=*/epoch - 1);
    }
    EpochPrepareRequest prepare;
    prepare.epoch = epoch;
    prepare.updates.assign(updates.begin(), updates.end());
    const std::string payload = prepare.Encode();
    const auto& hook = options_.remote.before_prepare_hook;
    // One thread per worker, capped at the hardware thread count.
    ParallelFor(
        workers_.size(), std::max(1u, std::thread::hardware_concurrency()),
        [&](size_t wi) {
          Worker& worker = *workers_[wi];
          if (!worker.alive.load(std::memory_order_acquire)) return;
          if (worker.epoch.load(std::memory_order_acquire) != epoch - 1) {
            return;
          }
          // A dropped prepare models a lost RPC: the replica stays alive
          // but silently misses this epoch (and leaves the read rotation
          // via the epoch check until caught up).
          if (hook && !hook(FaultPoint(worker, epoch))) return;
          if (ApplyOnWorker(worker, epoch, payload,
                            updates_of_shard[worker.shard])
                  .ok()) {
            worker.epoch.store(epoch, std::memory_order_release);
          } else {
            MarkDead(worker);
          }
        });
  }

  /// See RemoteShardedRoutingService::RestartDeadWorkers; the caller holds
  /// the exclusive snapshot lock.
  Status RestartDeadWorkers() { return ReviveWorkers(epoch_); }

  /// Merges every worker's registry into `fleet` (see
  /// RemoteShardedRoutingService::Metrics).
  void MergeWorkerMetrics(MetricsSnapshot* fleet) const {
    for (const std::unique_ptr<Worker>& worker : workers_) {
      if (worker->alive.load(std::memory_order_acquire)) {
        // Refreshes the cached snapshot on success; a failed ping marks the
        // worker dead and the cache below still provides its last state.
        (void)HealthCheck(*worker);
      }
      MetricsSnapshot worker_metrics;
      {
        MutexLock metrics_lock(worker->metrics_mu);
        if (!worker->has_metrics) continue;
        worker_metrics = worker->last_metrics;
      }
      worker_metrics.AddLabel("shard", std::to_string(worker->shard));
      worker_metrics.AddLabel("replica", std::to_string(worker->replica));
      fleet->Merge(worker_metrics);
    }
  }

  std::vector<RemoteWorkerInfo> WorkerInfos() const {
    std::vector<RemoteWorkerInfo> infos;
    infos.reserve(workers_.size());
    for (const std::unique_ptr<Worker>& worker : workers_) {
      RemoteWorkerInfo info;
      info.shard = worker->shard;
      info.replica = worker->replica;
      info.pid = worker->pid.load(std::memory_order_relaxed);
      info.socket_path = worker->socket_path;
      info.alive = worker->alive.load(std::memory_order_acquire);
      info.epoch = worker->epoch.load(std::memory_order_relaxed);
      info.restarts = worker->restarts.load(std::memory_order_relaxed);
      info.catchups = worker->catchups.load(std::memory_order_relaxed);
      info.reads = worker->reads.value();
      infos.push_back(std::move(info));
    }
    return infos;
  }

  uint32_t num_replicas() const { return options_.num_replicas; }

 private:
  /// Health-checks every replica, respawns the dead ones and reloads the
  /// alive ones below `min_epoch`; either way they land at epoch_.
  Status ReviveWorkers(uint64_t min_epoch) {
    // A worker that crashed without a failed RPC still looks alive; a cheap
    // ping flushes silent deaths out (and refreshes each survivor's
    // reported epoch) before we decide who needs reviving or catching up.
    for (std::unique_ptr<Worker>& worker : workers_) {
      if (worker->alive.load(std::memory_order_acquire)) {
        (void)HealthCheck(*worker);
      }
    }
    Status first_failure = Status::OK();
    for (std::unique_ptr<Worker>& worker : workers_) {
      if (worker->alive.load(std::memory_order_acquire)) {
        // Alive but lagging (it missed prepares, e.g. dropped RPCs): reload
        // it in place, no respawn needed.
        if (worker->epoch.load(std::memory_order_acquire) < min_epoch) {
          Status caught = CatchUpWorker(*worker);
          if (!caught.ok() && first_failure.ok()) {
            first_failure = std::move(caught);
          }
        }
        continue;
      }
      // Reap the previous incarnation (SIGKILL is a no-op if it already
      // exited; the waitpid prevents zombies either way).
      pid_t pid = worker->pid.load(std::memory_order_relaxed);
      if (pid > 0) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
        worker->pid.store(-1, std::memory_order_relaxed);
      }
      worker->client->Disconnect();
      Status spawned = SpawnAndLoadWorker(*worker);
      if (spawned.ok()) {
        worker->restarts.fetch_add(1, std::memory_order_relaxed);
        // A respawn past epoch 0 loaded weights it had missed to rejoin the
        // rotation — that is a catch-up in the replication sense.
        if (epoch_ > 0) {
          worker->catchups.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (first_failure.ok()) {
        first_failure = std::move(spawned);
      }
    }
    if (!first_failure.ok()) {
      return Status::Unavailable("worker restart failed: " +
                                 first_failure.ToString());
    }
    return Status::OK();
  }

  /// One replica worker process: transport handle, liveness, and its read
  /// share. `mu` serialises calls on the single connection; `pid` is
  /// written only under the coordinator's exclusive snapshot lock (or during
  /// Create); `epoch` is additionally refreshed from ping replies, and both
  /// are read through atomics for monitoring and read routing.
  struct Worker {
    ShardId shard = kInvalidShard;
    uint32_t replica = 0;
    std::string socket_path;
    std::atomic<pid_t> pid{-1};
    std::unique_ptr<RpcClient> client;
    /// Serialises RPCs on this worker's connection (several batch-pool
    /// threads may need the same worker).
    mutable Mutex mu{"ReplicaFleet::Worker::mu"};
    /// Mutable: the const query path marks a worker dead on RPC failure.
    mutable std::atomic<bool> alive{false};
    /// Mutable: health checks on the const query/scrape paths refresh it
    /// from the worker's own ping report.
    mutable std::atomic<uint64_t> epoch{0};
    std::atomic<uint64_t> restarts{0};
    std::atomic<uint64_t> catchups{0};
    /// reads_by_replica_total{shard, replica}.
    Counter reads;
    /// Last snapshot this worker shipped back in a ping reply (the
    /// fallback when the worker is unreachable at scrape time). Guarded by
    /// metrics_mu, never by `mu` — caching must not serialise with RPCs.
    mutable Mutex metrics_mu{"ReplicaFleet::Worker::metrics_mu"};
    mutable MetricsSnapshot last_metrics GUARDED_BY(metrics_mu);
    mutable bool has_metrics GUARDED_BY(metrics_mu) = false;
  };

  Worker& WorkerAt(ShardId shard, uint32_t replica) const {
    return *workers_[static_cast<size_t>(shard) * options_.num_replicas +
                     replica];
  }

  static ReplicaFaultPoint FaultPoint(const Worker& worker, uint64_t epoch) {
    return {worker.shard, worker.replica,
            worker.pid.load(std::memory_order_relaxed), epoch};
  }

  static void MarkDead(const Worker& worker) {
    worker.alive.store(false, std::memory_order_release);
  }

  /// One partials round trip to `worker`, validated. A transport or
  /// protocol failure marks the worker dead — it cannot serve its shard
  /// until restarted, and later fetches skip it on the alive flag instead
  /// of re-timing-out. An epoch-mismatch rejection only means the replica
  /// is lagging: it stays alive for catch-up while its siblings serve.
  Status FetchFromWorker(const Worker& worker, const std::string& payload,
                         std::span<const SubgraphId> owned,
                         std::vector<SubgraphPartials>* lists) const {
    std::string reply_payload;
    Status called;
    {
      MutexLock lock(worker.mu);
      called = worker.client->Call(MessageType::kPartialsRequest, payload,
                                   MessageType::kPartialsReply,
                                   &reply_payload);
    }
    PartialsReply reply;
    if (called.ok()) called = PartialsReply::Decode(reply_payload, &reply);
    if (called.ok() && reply.lists.size() != owned.size()) {
      called = Status::Internal(
          "worker " + std::to_string(worker.shard) + " returned " +
          std::to_string(reply.lists.size()) + " partial lists for " +
          std::to_string(owned.size()) + " requested subgraphs");
    }
    for (size_t i = 0; called.ok() && i < owned.size(); ++i) {
      if (reply.lists[i].sgid != owned[i]) {
        called = Status::Internal("worker " + std::to_string(worker.shard) +
                                  " returned partials for the wrong subgraph");
      }
    }
    if (!called.ok()) {
      if (called.code() != StatusCode::kFailedPrecondition) MarkDead(worker);
      return called;
    }
    std::move(reply.lists.begin(), reply.lists.end(),
              std::back_inserter(*lists));
    return Status::OK();
  }

  // Ships the master graph to the worker process (which re-partitions it
  // deterministically and resets to epoch_), cross-checks the rebuilt
  // ownership against the coordinator's, and on success puts the worker at
  // epoch_. The caller marks the worker dead on failure.
  Status LoadWorker(Worker& worker) const {
    LoadGraphRequest load = LoadGraphRequest::FromGraph(
        graph_, worker.shard, assignment_.num_shards,
        options_.dtlp.partition);
    load.replica_id = worker.replica;
    load.base_epoch = epoch_;
    std::string reply_payload;
    Status called;
    {
      MutexLock lock(worker.mu);
      called = worker.client->Call(
          MessageType::kLoadGraphRequest, load.Encode(),
          MessageType::kLoadGraphReply, &reply_payload,
          kApplyDeadlineMs);
    }
    LoadGraphReply loaded;
    if (called.ok()) called = LoadGraphReply::Decode(reply_payload, &loaded);
    if (called.ok() &&
        (loaded.subgraphs_owned !=
             assignment_.subgraphs_of_shard[worker.shard].size() ||
         loaded.vertices_owned !=
             assignment_.vertices_of_shard[worker.shard])) {
      // The worker's deterministic rebuild disagreed with ours — nothing it
      // answers can be trusted.
      called = Status::Internal(
          "worker " + std::to_string(worker.shard) +
          " rebuilt a different shard assignment than the coordinator");
    }
    if (called.ok()) worker.epoch.store(epoch_, std::memory_order_release);
    return called;
  }

  /// The checked apply of `epoch` on `worker`: sends `payload` (the
  /// encoded EpochPrepareRequest) and checks that the worker acknowledged
  /// `epoch` and applied exactly the `expected` updates its shard owns —
  /// the cross-check that catches a worker whose deterministic partition
  /// diverged from the coordinator's. The caller marks the worker dead on
  /// failure.
  Status ApplyOnWorker(const Worker& worker, uint64_t epoch,
                       const std::string& payload, uint64_t expected) const {
    std::string reply_payload;
    Status called;
    {
      MutexLock lock(worker.mu);
      called = worker.client->Call(
          MessageType::kEpochPrepareRequest, payload,
          MessageType::kEpochPrepareReply, &reply_payload,
          kApplyDeadlineMs);
    }
    EpochPrepareReply reply;
    if (called.ok()) called = EpochPrepareReply::Decode(reply_payload, &reply);
    if (called.ok() && reply.epoch != epoch) {
      called = Status::Internal("worker acknowledged the wrong epoch");
    }
    if (called.ok() && reply.updates_applied != expected) {
      called = Status::Internal(
          "worker " + std::to_string(worker.shard) + " replica " +
          std::to_string(worker.replica) + " applied " +
          std::to_string(reply.updates_applied) + " updates where the " +
          "coordinator expected " + std::to_string(expected) +
          " (divergent shard state)");
    }
    return called;
  }

  /// Spawns the process for `worker` (which must not have a live child) and
  /// ships it the master graph. On success the worker is alive at epoch_.
  Status SpawnAndLoadWorker(Worker& worker) const {
    std::vector<std::string> args = {
        worker_binary_, "--socket", worker.socket_path, "--idle-timeout-ms",
        std::to_string(options_.remote.worker_idle_timeout_ms)};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, worker_binary_.c_str(), /*file_actions=*/nullptr,
                         /*attrp=*/nullptr, argv.data(), environ);
    if (rc != 0) {
      return Status::Internal("posix_spawn(" + worker_binary_ +
                              "): " + std::strerror(rc));
    }
    worker.pid.store(pid, std::memory_order_release);
    // Bootstrap (EnsureConnected inside the client keeps retrying the
    // connect until the deadline, which covers startup).
    Status called = LoadWorker(worker);
    if (!called.ok()) {
      MarkDead(worker);
      return called;
    }
    worker.alive.store(true, std::memory_order_release);
    return Status::OK();
  }

  /// Reloads an alive-but-lagging worker in place so it rejoins the read
  /// rotation at epoch_: one LoadGraph, however many batches it missed.
  Status CatchUpWorker(Worker& worker) const {
    Status called = LoadWorker(worker);
    if (!called.ok()) {
      MarkDead(worker);
      return called;
    }
    worker.catchups.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  /// Pings `worker`; marks it dead on failure.
  bool HealthCheck(const Worker& worker) const {
    static std::atomic<uint64_t> nonce_source{1};
    PingRequest ping;
    ping.nonce = nonce_source.fetch_add(1, std::memory_order_relaxed);
    std::string reply_payload;
    Status called;
    {
      MutexLock lock(worker.mu);
      called = worker.client->Call(MessageType::kPingRequest, ping.Encode(),
                                   MessageType::kPingReply, &reply_payload);
    }
    PingReply pong;
    if (called.ok()) called = PingReply::Decode(reply_payload, &pong);
    if (called.ok() && pong.nonce != ping.nonce) {
      called = Status::Internal("ping nonce mismatch");
    }
    if (called.ok() &&
        (pong.shard_id != worker.shard || pong.replica_id != worker.replica)) {
      called = Status::Internal("ping answered by the wrong worker identity");
    }
    if (!called.ok()) {
      MarkDead(worker);
      return false;
    }
    // The pong carries the worker's own epoch — the authoritative lag
    // signal that takes a replica out of (or back into) the read rotation.
    worker.epoch.store(pong.epoch, std::memory_order_release);
    // Every successful ping refreshes the worker's cached metrics snapshot
    // — the fleet-wide export falls back to it when the worker is
    // unreachable.
    MetricsSnapshot worker_metrics;
    if (MetricsSnapshot::DecodeWire(pong.metrics_blob, &worker_metrics).ok()) {
      MutexLock metrics_lock(worker.metrics_mu);
      worker.last_metrics = std::move(worker_metrics);
      worker.has_metrics = true;
    }
    return true;
  }

  /// Best-effort graceful shutdown + SIGKILL + reap of one worker process.
  static void StopWorker(Worker& worker) {
    if (worker.client != nullptr &&
        worker.alive.load(std::memory_order_acquire)) {
      // Graceful half: ask the worker to exit. Short deadline — SIGKILL
      // below backs it up, and a dead worker should not stall teardown.
      std::string reply_payload;
      MutexLock lock(worker.mu);
      (void)worker.client->Call(MessageType::kShutdownRequest, std::string(),
                                MessageType::kShutdownReply, &reply_payload,
                                /*deadline_ms_override=*/500);
    }
    pid_t pid = worker.pid.load(std::memory_order_relaxed);
    if (pid > 0) {
      bool reaped = false;
      for (int i = 0; i < 50; ++i) {
        int wstatus = 0;
        pid_t r = waitpid(pid, &wstatus, WNOHANG);
        if (r != 0) {  // exited (or already reaped — nothing left to do)
          reaped = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!reaped) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
      }
      worker.pid.store(-1, std::memory_order_relaxed);
    }
    worker.alive.store(false, std::memory_order_release);
    // The worker unlinks its socket on a graceful exit, but a SIGKILLed one
    // cannot — remove it here so teardown never litters the socket dir.
    if (!worker.socket_path.empty()) ::unlink(worker.socket_path.c_str());
  }

  /// The coordinator's master graph: what every (re)load ships.
  const Graph& graph_;
  const ShardAssignment& assignment_;
  const RemoteShardedRoutingServiceOptions options_;
  /// Resolved worker binary path (see RemoteWorkerOptions::worker_binary).
  std::string worker_binary_;
  /// The epoch graph_'s weights belong to: what a (re)loaded worker starts
  /// at. Inside Apply it is already the new epoch, since the coordinator
  /// applies the batch to its master before calling Apply.
  uint64_t epoch_ = 0;
  /// The fleet, shard-major: workers_[shard * num_replicas + replica].
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Per-shard round-robin start offset for the next partial fetch.
  mutable std::vector<std::atomic<uint64_t>> next_replica_;
};

Result<std::unique_ptr<RemoteShardedRoutingService>>
RemoteShardedRoutingService::Create(
    Graph graph, RemoteShardedRoutingServiceOptions options) {
  if (options.num_replicas == 0) {
    return Status::InvalidArgument("num_replicas must be >= 1");
  }
  std::unique_ptr<RemoteShardedRoutingService> service(
      new RemoteShardedRoutingService(std::move(graph), options));
  RemoteShardedRoutingService* raw = service.get();
  KSPDG_RETURN_NOT_OK(service->Init(
      [raw, &options]() -> Result<std::unique_ptr<ShardBackend>> {
        auto fleet = std::make_unique<ReplicaFleet>(
            raw->graph(), raw->assignment(), raw->metrics_registry(),
            std::move(options));
        KSPDG_RETURN_NOT_OK(fleet->Start());
        raw->fleet_ = fleet.get();
        return std::unique_ptr<ShardBackend>(std::move(fleet));
      }));
  return service;
}

Status RemoteShardedRoutingService::RestartDeadWorkers() {
  // Exclusive: restarting swaps worker state under queries' feet otherwise.
  EpochWriterLock lock(snapshot_lock());
  return fleet_->RestartDeadWorkers();
}

MetricsSnapshot RemoteShardedRoutingService::Metrics() const {
  MetricsSnapshot fleet = RoutingService::Metrics();
  fleet_->MergeWorkerMetrics(&fleet);
  return fleet;
}

std::vector<RemoteWorkerInfo> RemoteShardedRoutingService::WorkerInfos()
    const {
  return fleet_->WorkerInfos();
}

uint32_t RemoteShardedRoutingService::num_replicas() const {
  return fleet_->num_replicas();
}

}  // namespace kspdg
