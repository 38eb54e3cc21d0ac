// RemoteShardedRoutingService: the serving core (RoutingService) with the
// RPC replica-set shard backend — the process-boundary deployment of the
// paper's distributed Storm topology (§4).
//
// Topology: the coordinator (the RoutingService core: graph, DTLP master,
// CANDS, epochs, queue, registry) plus num_shards x num_replicas
// `shard_worker` processes, each replica holding the subgraph weight
// copies of one shard of the partition (the same deterministic
// AssignShards split as every deployment). The DTLP's level-1 indexes and
// skeleton live only on the coordinator, because the KSP-DG filter step
// reads per-subgraph lower bounds on every query. What moves across the
// process boundary is the refine step: the core's partial provider hands
// each shard's boundary-pair fetch to this backend, which turns it into a
// PartialsRequest RPC. (Keeping the level-1 indexes on the coordinator
// rather than on the subgraphs' owners is a deliberate deviation from the
// paper's deployment; it is what lets one node answer the filter step
// without a network hop per bound lookup.)
//
// What the fleet adds to the core, and nothing else:
//
//   reads     each fetch starts at the shard's round-robin cursor and walks
//             the replica set, skipping replicas that are dead or have not
//             committed the pinned epoch, failing over on transport errors.
//             Every replica at an epoch holds the same weights, so
//             whichever one answers, the bytes are identical. Only an
//             all-replicas-dead shard fails a query (kUnavailable), through
//             the core's query-poisoning path — never a hang, never a wrong
//             answer.
//   writes    one apply RPC per live replica per traffic batch, under
//             the core's exclusive snapshot lock: an EpochPrepare RPC fans
//             the full batch out to every replica alive at the preceding
//             epoch (each writes the updates its subgraphs own into their
//             weight copies and reports how many it applied), then the core
//             publishes the epoch. There is no commit round. A replica
//             whose apply fails, or whose reply names the wrong epoch or
//             update count, is marked dead rather than failing the batch.
//   recovery  no log: a worker's state is a pure function of the current
//             weights (the partition does not depend on them, and updates
//             are absolute). RestartDeadWorkers (also run by
//             ApplyTrafficBatch when auto_restart is set) health-checks
//             every replica, respawns the dead ones and reloads an
//             alive-but-lagging one in place, each with one LoadGraph of
//             the coordinator's master graph stamped with its epoch.
//   metrics   Metrics() merges every worker's registry (shipped back in ping
//             replies) into the core's scrape.
//
// Fault model: every RPC has a per-attempt deadline and a bounded retry
// budget (all protocol requests are idempotent — prepares replay their
// stored reply, partials are reads, a load resets the worker).
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

/// Identity of one replica at an apply fault point, handed to the
/// fault-injection hook below so a test harness can target a named replica
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
  /// Respawn dead workers and reload lagging ones at the start of every
  /// ApplyTrafficBatch (RestartDeadWorkers can always be called
  /// explicitly).
  bool auto_restart = true;
  /// Test-only fault injection: called immediately before the prepare RPC
  /// of each replica taking part in a live epoch advance (not before
  /// reloads). Returning false drops the RPC — the replica silently misses
  /// the epoch, exactly as a lost message would — and the hook may also
  /// kill or stop the named pid to script a crash mid-batch.
  /// Never set in production.
  std::function<bool(const ReplicaFaultPoint&)> before_prepare_hook;
};

/// The core's options plus the fleet's. The apply fan-out runs one
/// thread per worker, capped at the hardware thread count.
struct RemoteShardedRoutingServiceOptions : RoutingServiceOptions {
  /// Replica workers per shard (>= 1). The fleet runs
  /// num_shards * num_replicas worker processes; reads load-balance across
  /// a shard's replicas, writes go to all of them in epoch order.
  uint32_t num_replicas = 1;
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
  /// Times this worker was caught back up to the committed epoch (a
  /// respawn or an in-place reload) after missing one or more batches.
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

  /// Health-checks every replica, respawns the dead ones, and reloads an
  /// alive-but-lagging replica in place; either way the replica gets the
  /// master weights at the committed epoch in one LoadGraph. Returns OK
  /// when every replica is alive at the committed epoch afterwards;
  /// kUnavailable when any could not be revived (the others still serve).
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

 private:
  RemoteShardedRoutingService(Graph graph, RoutingServiceOptions options)
      : RoutingService(std::move(graph), std::move(options)) {}

  /// The fleet, owned by the core as its shard backend (set in Create).
  ReplicaFleet* fleet_ = nullptr;
};

}  // namespace kspdg

#endif  // KSPDG_REMOTE_REMOTE_SHARDED_ROUTING_SERVICE_H_
