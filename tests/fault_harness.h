// Fault-injection harness for the replicated remote suite, building on
// parity_harness.h. Three fault families, all deterministic:
//
//   KillReplica / PauseReplica / ResumeReplica
//       act on a NAMED (shard, replica) worker process by pid — SIGKILL
//       for a crash, SIGSTOP/SIGCONT for a process whose socket stops
//       answering (the deadline path, not the connection-reset path).
//   FaultPlan + MakePrepareHook
//       script the coordinator's apply fan-out: drop the next N prepare
//       RPCs of the named replica — it silently misses those epochs
//       exactly as a lost message would — or kill the replica at the
//       instant its prepare would be sent, which is the deterministic
//       "died mid-batch" drill.
//
// The plan lives behind a shared_ptr captured by the hook, so a test
// arms and re-arms faults AFTER the service is built, and the hook state
// (atomics) is safe to flip while an apply is in flight on the pool.
#ifndef KSPDG_TESTS_FAULT_HARNESS_H_
#define KSPDG_TESTS_FAULT_HARNESS_H_

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>

#include <atomic>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "parity_harness.h"
#include "remote/remote_sharded_routing_service.h"

namespace kspdg {

/// The (shard, replica) worker's snapshot, or nullptr + test failure.
inline const RemoteWorkerInfo* FindReplica(
    const std::vector<RemoteWorkerInfo>& infos, ShardId shard,
    uint32_t replica) {
  for (const RemoteWorkerInfo& info : infos) {
    if (info.shard == shard && info.replica == replica) return &info;
  }
  ADD_FAILURE() << "no worker for shard " << shard << " replica " << replica;
  return nullptr;
}

/// Deleted: the returned pointer aims into `infos`, so passing a temporary
/// (e.g. FindReplica(service.WorkerInfos(), ...)) would dangle the moment
/// the statement ends. Bind the snapshot to a local first.
const RemoteWorkerInfo* FindReplica(std::vector<RemoteWorkerInfo>&&, ShardId,
                                    uint32_t) = delete;

inline void SignalReplica(const RemoteShardedRoutingService& service,
                          ShardId shard, uint32_t replica, int signum) {
  const std::vector<RemoteWorkerInfo> infos = service.WorkerInfos();
  const RemoteWorkerInfo* info = FindReplica(infos, shard, replica);
  ASSERT_NE(info, nullptr);
  ASSERT_GT(info->pid, 0) << "shard " << shard << " replica " << replica;
  ASSERT_EQ(kill(info->pid, signum), 0);
}

/// Crash: the process dies immediately; the coordinator discovers it on
/// the next RPC (connection reset) or health check.
inline void KillReplica(const RemoteShardedRoutingService& service,
                        ShardId shard, uint32_t replica) {
  SignalReplica(service, shard, replica, SIGKILL);
}

/// Delay-its-socket: a stopped process keeps its listener open but never
/// answers, so RPCs to it run into the per-attempt deadline instead of a
/// connection error. Pair with ResumeReplica before teardown.
inline void PauseReplica(const RemoteShardedRoutingService& service,
                         ShardId shard, uint32_t replica) {
  SignalReplica(service, shard, replica, SIGSTOP);
}

inline void ResumeReplica(const RemoteShardedRoutingService& service,
                          ShardId shard, uint32_t replica) {
  SignalReplica(service, shard, replica, SIGCONT);
}

/// Scripted faults against one named replica. All counters are armed by
/// the test and consumed by the hooks; `prepares_seen` counts the fault
/// points that targeted the replica (armed or not), so a test can assert
/// the scripted point was actually reached.
struct FaultPlan {
  ShardId shard = kInvalidShard;
  uint32_t replica = 0;
  /// Drop the next N prepare RPCs of the replica (it silently lags).
  std::atomic<int> drop_prepares{0};
  /// SIGKILL the replica at its next prepare fault point — the
  /// deterministic mid-batch crash. One-shot.
  std::atomic<bool> kill_at_prepare{false};
  std::atomic<int> prepares_seen{0};
};

inline std::function<bool(const ReplicaFaultPoint&)> MakePrepareHook(
    std::shared_ptr<FaultPlan> plan) {
  return [plan](const ReplicaFaultPoint& point) {
    if (point.shard != plan->shard || point.replica != plan->replica) {
      return true;
    }
    plan->prepares_seen.fetch_add(1, std::memory_order_relaxed);
    if (plan->kill_at_prepare.exchange(false, std::memory_order_acq_rel)) {
      // Crash exactly between the coordinator's master apply and this
      // replica's prepare: the RPC then fails on the dead process and the
      // coordinator marks the replica dead mid-batch, deterministically.
      EXPECT_GT(point.pid, 0);
      EXPECT_EQ(kill(point.pid, SIGKILL), 0);
      return true;
    }
    int armed = plan->drop_prepares.load(std::memory_order_relaxed);
    while (armed > 0) {
      if (plan->drop_prepares.compare_exchange_weak(
              armed, armed - 1, std::memory_order_acq_rel)) {
        return false;  // lost message: the replica misses this epoch
      }
    }
    return true;
  };
}

/// Replicated fleet with fault-suite deadlines (a dead worker is detected
/// in well under a second) and the plan's hook installed. `auto_restart`
/// off by default so tests control exactly when revival happens.
inline std::unique_ptr<RemoteShardedRoutingService> MustCreateReplicated(
    Graph g, uint32_t z, uint32_t num_shards, uint32_t num_replicas,
    std::shared_ptr<FaultPlan> plan = nullptr, bool auto_restart = false) {
  RemoteShardedRoutingServiceOptions options;
  options.dtlp.partition.max_vertices = z;
  options.num_shards = num_shards;
  options.num_replicas = num_replicas;
  options.remote.rpc_deadline_ms = 300;
  options.remote.rpc_max_retries = 0;
  options.remote.rpc_backoff_ms = 1;
  options.remote.auto_restart = auto_restart;
  if (plan != nullptr) {
    options.remote.before_prepare_hook = MakePrepareHook(plan);
  }
  Result<std::unique_ptr<RemoteShardedRoutingService>> service =
      RemoteShardedRoutingService::Create(std::move(g), std::move(options));
  if (!service.ok()) {
    ADD_FAILURE() << service.status().ToString();
    return nullptr;
  }
  return std::move(service).value();
}

}  // namespace kspdg

#endif  // KSPDG_TESTS_FAULT_HARNESS_H_
