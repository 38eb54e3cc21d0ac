// shard_worker: one out-of-process shard of a RemoteShardedRoutingService.
//
// Usage:
//   shard_worker --socket PATH [--idle-timeout-ms N]
//
// The worker listens on a unix socket and speaks the src/rpc protocol. A
// LoadGraph request ships the full graph + DTLP knobs + (shard_id,
// num_shards, replica_id, base_epoch); the worker rebuilds the partition,
// the DTLP, and the shard assignment with the same deterministic code the
// coordinator runs, so its subgraph weight copies and level-1 indexes are
// identical to the coordinator's by construction. The shipped weights may
// be a mid-stream checkpoint: the worker then starts at base_epoch and the
// coordinator replays the batches committed after it, which is how a
// replica that died (or fell behind) catches back up. From then on it serves the two requests
// that matter:
//
//   Partials       the KSP-DG refine step for boundary pairs inside its
//                  owned subgraphs (the per-query Yen work, moved off the
//                  coordinator process);
//   EpochPrepare   its slice of Algorithm 2 for one traffic batch — the
//                  worker filters the full batch to its owned subgraphs,
//                  applies them through Dtlp::ApplyUpdates (the code the
//                  coordinator runs on its master), and replies. Prepares
//                  are idempotent: re-sending the prepared epoch replays
//                  the stored reply, so coordinator retries after a lost
//                  reply are safe.
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
#include "dtlp/dtlp.h"
#include "graph/graph.h"
#include "kspdg/partial_provider.h"
#include "obs/metrics.h"
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
    // The DTLP keeps a pointer to the graph: pin it on the heap first, and
    // only swap the old state out once the whole rebuild succeeded.
    auto owned_graph = std::make_unique<Graph>(std::move(graph).value());
    Result<std::unique_ptr<Dtlp>> dtlp =
        Dtlp::Build(*owned_graph, request.dtlp);
    if (!dtlp.ok()) return dtlp.status();
    Result<ShardAssignment> assignment =
        AssignShards(dtlp.value()->partition(), request.num_shards);
    if (!assignment.ok()) return assignment.status();

    graph_ = std::move(owned_graph);
    dtlp_ = std::move(dtlp).value();
    assignment_ = std::move(assignment).value();
    shard_id_ = request.shard_id;
    replica_id_ = request.replica_id;
    owned_.assign(dtlp_->NumSubgraphs(), 0);
    for (SubgraphId sgid : assignment_.subgraphs_of_shard[shard_id_]) {
      owned_[sgid] = 1;
    }
    // The shipped weights are the coordinator's checkpoint: the worker
    // starts at the checkpoint epoch and the coordinator replays only the
    // batches committed after it (prepare still requires epoch_ + 1, so
    // replay order is enforced the same way live batches are).
    epoch_ = request.base_epoch;
    last_prepare_reply_.clear();
    graph_loads_.Increment();
    epoch_gauge_.Set(static_cast<int64_t>(epoch_));

    LoadGraphReply loaded;
    loaded.subgraphs_owned = assignment_.subgraphs_of_shard[shard_id_].size();
    loaded.vertices_owned = assignment_.vertices_of_shard[shard_id_];
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
    const Partition& partition = dtlp_->partition();
    PartialsReply result;
    result.lists.reserve(request.sgids.size());
    for (SubgraphId sgid : request.sgids) {
      if (sgid >= owned_.size() || owned_[sgid] == 0) {
        return Status::InvalidArgument(
            "partials request names subgraph " + std::to_string(sgid) +
            " which this worker does not own");
      }
      const Subgraph& sg = partition.subgraphs[sgid];
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
          " (worker needs a reload + replay)");
    }
    KSPDG_RETURN_NOT_OK(ValidateWeightUpdates(*graph_, request.updates));

    // Algorithm 2 on the owned slice: the same Dtlp::ApplyUpdates the
    // coordinator runs on its master, fed the updates this shard owns.
    const Partition& partition = dtlp_->partition();
    std::vector<WeightUpdate> owned_updates;
    for (const WeightUpdate& update : request.updates) {
      graph_->SetWeight(update);  // keep the flat copy coherent
      SubgraphId sgid = partition.subgraph_of_edge[update.edge];
      if (sgid != kInvalidSubgraph && owned_[sgid] != 0) {
        owned_updates.push_back(update);
      }
    }
    const DtlpUpdateStats stats = dtlp_->ApplyUpdates(owned_updates);
    EpochPrepareReply applied;
    applied.epoch = request.epoch;
    applied.updates_applied = stats.updates_applied;
    applied.subgraphs_touched = stats.subgraphs_touched;
    epoch_ = request.epoch;
    epoch_prepares_.Increment();
    updates_applied_.Increment(applied.updates_applied);
    epoch_gauge_.Set(static_cast<int64_t>(epoch_));
    last_prepare_reply_ = applied.Encode();
    *reply = last_prepare_reply_;
    return Status::OK();
  }

  Status HandleCommit(const std::string& payload, std::string* reply) {
    KSPDG_RETURN_NOT_OK(RequireLoaded());
    EpochCommitRequest request;
    KSPDG_RETURN_NOT_OK(EpochCommitRequest::Decode(payload, &request));
    if (request.epoch != epoch_) {
      return Status::FailedPrecondition(
          "commit names epoch " + std::to_string(request.epoch) +
          " but the worker prepared epoch " + std::to_string(epoch_));
    }
    // Bookkeeping only: the state moved during prepare. A missed commit is
    // recovered implicitly by the next prepare/partials epoch check.
    EpochCommitReply committed;
    committed.epoch = epoch_;
    *reply = committed.Encode();
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
    if (dtlp_ == nullptr) {
      return Status::FailedPrecondition("worker has no graph loaded");
    }
    return Status::OK();
  }

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<Dtlp> dtlp_;
  ShardAssignment assignment_;
  ShardId shard_id_ = kInvalidShard;
  uint32_t replica_id_ = 0;
  std::vector<char> owned_;
  /// Last prepared epoch == number of traffic batches applied (the worker
  /// treats prepare as apply; commit is bookkeeping).
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
      case MessageType::kEpochCommitRequest:
        *reply_type = MessageType::kEpochCommitReply;
        return state.HandleCommit(payload, reply_payload);
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
