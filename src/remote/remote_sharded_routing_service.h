// RemoteShardedRoutingService: the serving core (RoutingService) with the
// RPC replica-set shard backend — the process-boundary deployment of the
// paper's distributed Storm topology (§4).
//
// Topology: the coordinator (the RoutingService core: graph, DTLP master,
// CANDS, epochs, queue, registry) plus num_shards x num_replicas
// `shard_worker` processes, each replica owning one shard of the DTLP
// partition (the same deterministic AssignShards split as every
// deployment). The coordinator keeps its master copy of the whole state,
// because the KSP-DG filter step reads per-subgraph lower bounds on every
// query. What moves across the process boundary is the refine step: the
// core's partial provider hands each shard's boundary-pair fetch to this
// backend, which turns it into a PartialsRequest RPC. (Keeping the level-1
// indexes on the coordinator as well is a deliberate deviation from the
// paper's pure deployment; it is what lets one node answer the filter step
// without a network hop per bound lookup.)
//
// What the fleet adds to the core, and nothing else:
//
//   reads     each fetch starts at the shard's round-robin cursor and walks
//             the replica set, skipping replicas that are dead or have not
//             committed the pinned epoch, failing over on transport errors.
//             Every replica replays the same epoch sequence, so whichever
//             one answers, the bytes are identical. Only an all-replicas-
//             dead shard fails a query (kUnavailable), through the core's
//             query-poisoning path — never a hang, never a wrong answer.
//   writes    two-phase cross-process epoch commit under the core's
//             exclusive snapshot lock: EpochPrepare RPCs fan the full
//             batch out to every replica alive at the preceding epoch (each
//             filters to its owned subgraphs and runs Dtlp::ApplyUpdates
//             on them), the core commits, then best-effort EpochCommit
//             acknowledgements.
//             A replica that fails its prepare is marked dead rather than
//             failing the batch. The epoch sequence IS the replication log
//             (single writer, so no consensus round is needed).
//   recovery  the committed batch history back to the latest checkpoint (a
//             full weight snapshot every max_history_batches commits);
//             RestartDeadWorkers (also run by ApplyTrafficBatch when
//             auto_restart is set) health-checks every replica, respawns the
//             dead ones from the checkpoint plus the retained history, and
//             replays an alive-but-lagging one in place.
//   metrics   Metrics() merges every worker's registry (shipped back in ping
//             replies) into the core's scrape.
//
// Fault model: every RPC has a per-attempt deadline and a bounded retry
// budget (all protocol requests are idempotent — prepares replay their
// stored reply, partials are reads).
#ifndef KSPDG_REMOTE_REMOTE_SHARDED_ROUTING_SERVICE_H_
#define KSPDG_REMOTE_REMOTE_SHARDED_ROUTING_SERVICE_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/routing_service.h"
#include "core/status.h"
#include "core/types.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace kspdg {

/// Identity of one replica at a two-phase-commit fault point, handed to the
/// fault-injection hooks below so a test harness can target a named replica
/// deterministically (kill its pid, stop it, or drop the RPC).
struct ReplicaFaultPoint {
  ShardId shard = kInvalidShard;
  uint32_t replica = 0;
  pid_t pid = -1;
  uint64_t epoch = 0;
};

/// Knobs for the worker fleet and its RPC transport.
struct RemoteWorkerOptions {
  /// Path of the shard_worker binary. Empty = $KSPDG_WORKER_BIN if set,
  /// else "shard_worker" next to the current executable (all build targets
  /// land in the build root).
  std::string worker_binary;
  /// Directory for the per-worker unix sockets. Empty = $TMPDIR or /tmp.
  std::string socket_dir;
  /// Per-attempt deadline for query-path RPCs (partials, pings).
  int64_t rpc_deadline_ms = 5000;
  /// Retries after the first attempt (transport failures only; a worker
  /// that answers with an error is not retried).
  uint32_t rpc_max_retries = 2;
  /// Backoff before retry r is rpc_backoff_ms << (r - 1).
  int64_t rpc_backoff_ms = 20;
  /// Per-attempt deadline for load-graph and epoch-prepare RPCs (index
  /// build / Algorithm 2 can legitimately outlast the query deadline).
  int64_t apply_deadline_ms = 120'000;
  /// Idle-accept timeout handed to each worker: a worker whose coordinator
  /// died exits on its own after this long without a connection.
  int64_t worker_idle_timeout_ms = 120'000;
  /// Respawn + replay dead workers at the start of every ApplyTrafficBatch
  /// (RestartDeadWorkers can always be called explicitly).
  bool auto_restart = true;
  /// Test-only fault injection: called immediately before the prepare RPC
  /// (resp. the commit RPC) of each replica participating in an epoch
  /// advance. Returning false drops the RPC — the replica silently misses
  /// the epoch, exactly as a lost message would — and the hook may also
  /// kill or stop the named pid to script a mid-two-phase-commit crash.
  /// Never set in production.
  std::function<bool(const ReplicaFaultPoint&)> before_prepare_hook;
  std::function<bool(const ReplicaFaultPoint&)> before_commit_hook;
};

/// The core's options plus the fleet's. The prepare fan-out runs one
/// thread per worker, capped at the hardware thread count.
struct RemoteShardedRoutingServiceOptions : RoutingServiceOptions {
  /// Replica workers per shard (>= 1). The fleet runs
  /// num_shards * num_replicas worker processes; reads load-balance across
  /// a shard's replicas, writes go to all of them in epoch order.
  uint32_t num_replicas = 1;
  /// Commits retained in the replay history before the coordinator takes a
  /// checkpoint (full weight snapshot) and truncates the log. Bounds the
  /// catch-up cost of a replica restart; 0 is treated as 1.
  size_t max_history_batches = 32;
  RemoteWorkerOptions remote;
};

/// Point-in-time view of one worker process (monitoring + fault drills).
/// Traffic and transport totals live in the registry (Metrics()).
struct RemoteWorkerInfo {
  ShardId shard = kInvalidShard;
  /// Which replica of `shard` this worker is (0..num_replicas-1).
  uint32_t replica = 0;
  pid_t pid = -1;
  std::string socket_path;
  /// False once an RPC to this worker failed terminally (or a health check
  /// did); a dead worker fails over to its siblings until restarted.
  bool alive = false;
  /// Last epoch this worker acknowledged applying.
  uint64_t epoch = 0;
  /// Times this worker was respawned (0 for the original process).
  uint64_t restarts = 0;
  /// Times this worker was caught back up to the committed epoch (respawn
  /// replay or in-place replay) after missing one or more batches.
  uint64_t catchups = 0;
  /// Partial fetches this replica served (the read-rotation share).
  uint64_t reads = 0;
};

class ReplicaFleet;

class RemoteShardedRoutingService : public RoutingService {
 public:
  /// Builds the coordinator's master state exactly as RoutingService does,
  /// then spawns num_shards x num_replicas shard_worker processes and ships
  /// each the graph. Fails if the worker binary cannot be found/spawned or
  /// a worker fails to load the graph; already-spawned workers are torn
  /// down on failure.
  static Result<std::unique_ptr<RemoteShardedRoutingService>> Create(
      Graph graph, RemoteShardedRoutingServiceOptions options = {});

  /// Health-checks every replica, respawns + replays the dead ones (from
  /// the latest checkpoint), and replays an alive-but-lagging replica back
  /// to the committed epoch in place. Returns OK when every replica is
  /// alive at the committed epoch afterwards; kUnavailable when any could
  /// not be revived (the others still serve).
  Status RestartDeadWorkers();

  /// Fleet-wide scrape: the core's registry merged with every worker's
  /// latest snapshot. Live workers are pinged (each ping carries the
  /// worker's registry back in the reply); a worker that cannot be reached
  /// contributes its last successfully fetched snapshot instead, so the
  /// export degrades to slightly stale worker data rather than dropping a
  /// shard. Worker samples are tagged {shard="<id>", replica="<r>"}.
  MetricsSnapshot Metrics() const override;

  /// Per-worker fleet snapshot, shard-major: index = shard * num_replicas
  /// + replica.
  std::vector<RemoteWorkerInfo> WorkerInfos() const;

  uint32_t num_replicas() const;

  /// Checkpoint bookkeeping (monitoring + tests): the epoch of the latest
  /// full weight snapshot and the commits retained after it. The replay
  /// cost of a replica restart is bounded by history_size().
  uint64_t checkpoint_epoch() const;
  size_t history_size() const;

 private:
  RemoteShardedRoutingService(Graph graph, RoutingServiceOptions options)
      : RoutingService(std::move(graph), std::move(options)) {}

  /// The fleet, owned by the core as its shard backend (set in Create).
  ReplicaFleet* fleet_ = nullptr;
};

}  // namespace kspdg

#endif  // KSPDG_REMOTE_REMOTE_SHARDED_ROUTING_SERVICE_H_
