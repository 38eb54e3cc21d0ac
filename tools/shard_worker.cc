// shard_worker: one out-of-process shard of a RemoteShardedRoutingService.
//
// Usage:
//   shard_worker --socket PATH [--idle-timeout-ms N]
//
// The worker listens on a unix socket and speaks the src/rpc protocol. A
// LoadGraph request ships the full graph at the coordinator's current
// weights, the partition knobs, (shard_id, num_shards, replica_id) and the
// epoch those weights belong to; the worker re-partitions the graph and
// re-derives the shard assignment with the same deterministic code the
// coordinator runs, so the subgraph weight copies it owns are identical to
// the coordinator's by construction. That is all it keeps: the DTLP's
// level-1 bounds and skeleton live only on the coordinator. A replica that
// died or fell behind is caught back up by one more LoadGraph. From then
// on it serves the two requests that matter:
//
//   Partials       the KSP-DG refine step for boundary pairs inside its
//                  owned subgraphs (the per-query Yen work, moved off the
//                  coordinator process);
//   EpochPrepare   its share of one traffic batch, in one round trip: the
//                  worker writes the updates its subgraphs own into their
//                  weight copies and replies with the count; there is no
//                  commit message. Prepares are idempotent: re-sending the
//                  prepared epoch replays the stored reply, so coordinator
//                  retries after a lost reply are safe.
//
// The single-threaded loop (src/rpc/server.h) means requests cannot
// interleave worker-side; cross-process ordering is the coordinator's
// locking protocol. A worker whose coordinator disappears exits on the
// accept idle timeout instead of lingering as an orphan.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"
#include "kspdg/ksp_dg_options.h"
#include "kspdg/partial_provider.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "partition/shard_assignment.h"
#include "rpc/server.h"
#include "rpc/wire.h"

namespace kspdg {
namespace {

class WorkerState {
 public:
  explicit WorkerState(const RpcServer& server) {
    // worker_-prefixed so a merged fleet export never collides with the
    // coordinator's own serving metrics; the coordinator adds the shard
    // label when it merges.
    partials_requests_ = metrics_.GetCounter("worker_partials_requests_total");
    yen_runs_ = metrics_.GetCounter("worker_yen_runs_total");
    epoch_prepares_ = metrics_.GetCounter("worker_epoch_prepares_total");
    updates_applied_ = metrics_.GetCounter("worker_updates_applied_total");
    pings_ = metrics_.GetCounter("worker_pings_total");
    graph_loads_ = metrics_.GetCounter("worker_graph_loads_total");
    epoch_gauge_ = metrics_.GetGauge("worker_epoch");
    metrics_.AddCounterCallback("worker_rpc_requests_total", {},
                                [&server] { return server.requests_served(); });
    metrics_.AddCounterCallback("worker_rpc_bytes_received_total", {},
                                [&server] { return server.bytes_received(); });
    metrics_.AddCounterCallback("worker_rpc_bytes_sent_total", {},
                                [&server] { return server.bytes_sent(); });
  }

  Status HandleLoadGraph(const std::string& payload, std::string* reply) {
    LoadGraphRequest request;
    KSPDG_RETURN_NOT_OK(LoadGraphRequest::Decode(payload, &request));
    if (request.num_shards == 0 || request.shard_id >= request.num_shards) {
      return Status::InvalidArgument("load-graph shard id out of range");
    }
    Result<Graph> graph = request.BuildGraph();
    if (!graph.ok()) return graph.status();
    // The subgraphs copy topology and weights out of the graph, so the
    // graph itself is dropped once they exist. The old state is only
    // swapped out once the whole load succeeded.
    Result<Partition> partition =
        PartitionGraph(graph.value(), request.partition);
    if (!partition.ok()) return partition.status();
    Result<ShardAssignment> assignment =
        AssignShards(partition.value(), request.num_shards);
    if (!assignment.ok()) return assignment.status();

    partition_ = std::make_unique<Partition>(std::move(partition).value());
    shard_id_ = request.shard_id;
    replica_id_ = request.replica_id;
    owned_.assign(partition_->subgraphs.size(), 0);
    for (SubgraphId sgid : assignment.value().subgraphs_of_shard[shard_id_]) {
      owned_[sgid] = 1;
    }
    // The shipped weights are the coordinator's at base_epoch: the next
    // prepare names base_epoch + 1.
    epoch_ = request.base_epoch;
    last_prepare_reply_.clear();
    graph_loads_.Increment();
    epoch_gauge_.Set(static_cast<int64_t>(epoch_));

    LoadGraphReply loaded;
    loaded.subgraphs_owned =
        assignment.value().subgraphs_of_shard[shard_id_].size();
    loaded.vertices_owned = assignment.value().vertices_of_shard[shard_id_];
    *reply = loaded.Encode();
    return Status::OK();
  }

  Status HandlePartials(const std::string& payload, std::string* reply) {
    KSPDG_RETURN_NOT_OK(RequireLoaded());
    PartialsRequest request;
    KSPDG_RETURN_NOT_OK(PartialsRequest::Decode(payload, &request));
    if (request.epoch != epoch_) {
      // The coordinator and this worker disagree about which batches have
      // been applied; serving would risk a silently wrong (stale) answer.
      return Status::FailedPrecondition(
          "worker is at epoch " + std::to_string(epoch_) +
          " but the partials request names epoch " +
          std::to_string(request.epoch));
    }
    if (request.depth == 0 || request.depth > kMaxPartialDepth) {
      // The coordinator's depth schedule never leaves [1, kMaxPartialDepth];
      // anything else would only make Yen reserve an absurd list.
      return Status::InvalidArgument(
          "partials request depth " + std::to_string(request.depth) +
          " is outside [1, " + std::to_string(kMaxPartialDepth) + "]");
    }
    PartialsReply result;
    result.lists.reserve(request.sgids.size());
    for (SubgraphId sgid : request.sgids) {
      if (sgid >= owned_.size() || owned_[sgid] == 0) {
        return Status::InvalidArgument(
            "partials request names subgraph " + std::to_string(sgid) +
            " which this worker does not own");
      }
      const Subgraph& sg = partition_->subgraphs[sgid];
      if (!sg.ContainsGlobal(request.x) || !sg.ContainsGlobal(request.y)) {
        return Status::InvalidArgument(
            "partials request names a vertex outside subgraph " +
            std::to_string(sgid));
      }
      result.lists.push_back(
          {sgid, LocalPartialProvider::PartialsInSubgraph(
                     sg, request.x, request.y, request.depth)});
    }
    partials_requests_.Increment();
    yen_runs_.Increment(request.sgids.size());
    *reply = result.Encode();
    return Status::OK();
  }

  Status HandlePrepare(const std::string& payload, std::string* reply) {
    KSPDG_RETURN_NOT_OK(RequireLoaded());
    EpochPrepareRequest request;
    KSPDG_RETURN_NOT_OK(EpochPrepareRequest::Decode(payload, &request));
    if (request.epoch == epoch_ && !last_prepare_reply_.empty()) {
      // Retry of the prepare we already applied: replay the stored reply.
      *reply = last_prepare_reply_;
      return Status::OK();
    }
    if (request.epoch != epoch_ + 1) {
      return Status::FailedPrecondition(
          "worker is at epoch " + std::to_string(epoch_) +
          " but the prepare names epoch " + std::to_string(request.epoch) +
          " (worker needs a reload)");
    }
    KSPDG_RETURN_NOT_OK(ValidateWeightUpdates(
        partition_->subgraph_of_edge.size(), request.updates));

    // Absolute weights into the owned subgraphs' copies, in batch order.
    EpochPrepareReply applied;
    applied.epoch = request.epoch;
    for (const WeightUpdate& update : request.updates) {
      SubgraphId sgid = partition_->subgraph_of_edge[update.edge];
      if (sgid != kInvalidSubgraph && owned_[sgid] != 0) {
        partition_->subgraphs[sgid].ApplyUpdate(update);
        ++applied.updates_applied;
      }
    }
    epoch_ = request.epoch;
    epoch_prepares_.Increment();
    updates_applied_.Increment(applied.updates_applied);
    epoch_gauge_.Set(static_cast<int64_t>(epoch_));
    last_prepare_reply_ = applied.Encode();
    *reply = last_prepare_reply_;
    return Status::OK();
  }

  Status HandlePing(const std::string& payload, std::string* reply) {
    PingRequest request;
    KSPDG_RETURN_NOT_OK(PingRequest::Decode(payload, &request));
    pings_.Increment();
    PingReply pong;
    pong.nonce = request.nonce;
    pong.epoch = epoch_;
    pong.shard_id = shard_id_;
    pong.replica_id = replica_id_;
    // Every ping doubles as a metrics scrape: the whole worker registry
    // rides back in the reply, so the coordinator's fleet-wide export needs
    // no extra protocol message.
    pong.metrics_blob = metrics_.Snapshot().EncodeWire();
    *reply = pong.Encode();
    return Status::OK();
  }

 private:
  Status RequireLoaded() const {
    if (partition_ == nullptr) {
      return Status::FailedPrecondition("worker has no graph loaded");
    }
    return Status::OK();
  }

  /// The partition at the current weights; only the owned subgraphs'
  /// weight copies are ever read or written.
  std::unique_ptr<Partition> partition_;
  ShardId shard_id_ = kInvalidShard;
  uint32_t replica_id_ = 0;
  std::vector<char> owned_;
  /// Last prepared epoch == number of traffic batches applied.
  uint64_t epoch_ = 0;
  std::string last_prepare_reply_;

  MetricsRegistry metrics_;
  Counter partials_requests_;
  Counter yen_runs_;
  Counter epoch_prepares_;
  Counter updates_applied_;
  Counter pings_;
  Counter graph_loads_;
  Gauge epoch_gauge_;
};

int Run(const std::string& socket_path, int64_t idle_timeout_ms) {
  Result<std::unique_ptr<RpcServer>> server = RpcServer::Listen(socket_path);
  if (!server.ok()) {
    std::fprintf(stderr, "shard_worker: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  WorkerState state(*server.value());
  RpcServer::Handler handler =
      [&state](MessageType type, const std::string& payload,
               MessageType* reply_type, std::string* reply_payload,
               bool* shutdown) -> Status {
    switch (type) {
      case MessageType::kLoadGraphRequest:
        *reply_type = MessageType::kLoadGraphReply;
        return state.HandleLoadGraph(payload, reply_payload);
      case MessageType::kPartialsRequest:
        *reply_type = MessageType::kPartialsReply;
        return state.HandlePartials(payload, reply_payload);
      case MessageType::kEpochPrepareRequest:
        *reply_type = MessageType::kEpochPrepareReply;
        return state.HandlePrepare(payload, reply_payload);
      case MessageType::kPingRequest:
        *reply_type = MessageType::kPingReply;
        return state.HandlePing(payload, reply_payload);
      case MessageType::kShutdownRequest:
        *reply_type = MessageType::kShutdownReply;
        *shutdown = true;
        return Status::OK();
      default:
        return Status::InvalidArgument(
            "unknown request type " +
            std::to_string(static_cast<unsigned>(type)));
    }
  };
  Status served = server.value()->Serve(handler, idle_timeout_ms);
  if (served.ok()) return 0;  // clean shutdown request
  if (served.code() == StatusCode::kDeadlineExceeded) {
    // Orphan guard: no coordinator showed up (or the last one died and
    // never came back). Exiting quietly is the desired behaviour.
    return 0;
  }
  std::fprintf(stderr, "shard_worker: %s\n", served.ToString().c_str());
  return 1;
}

}  // namespace
}  // namespace kspdg

int main(int argc, char** argv) {
  std::string socket_path;
  int64_t idle_timeout_ms = 30'000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "shard_worker: missing value for %s\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--idle-timeout-ms") {
      idle_timeout_ms = std::strtoll(next(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s --socket PATH [--idle-timeout-ms N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "shard_worker: --socket is required\n");
    return 2;
  }
  return kspdg::Run(socket_path, idle_timeout_ms);
}
