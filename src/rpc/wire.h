// Explicit wire serialization for the shard-worker protocol messages.
//
// Every message is a plain struct with an Encode() producing the frame
// payload and a static Decode(payload, out) returning Status — corrupt or
// truncated payloads are rejected, never trusted. The byte format is the
// WireWriter/WireReader codec (core/wire_codec.h).
//
// The protocol is deliberately small: load-graph (worker bootstrap +
// restart), partial-list request/reply (the KSP-DG refine step), epoch
// prepare (a replica's whole share of one traffic batch: there is no
// second round), health ping, and shutdown. An ErrorReply carries a Status
// back for any request the worker rejects.
#ifndef KSPDG_RPC_WIRE_H_
#define KSPDG_RPC_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "core/types.h"
#include "core/wire_codec.h"
#include "dtlp/dtlp.h"
#include "graph/graph.h"
#include "ksp/path.h"
#include "kspdg/partial_provider.h"
#include "partition/shard_assignment.h"

namespace kspdg {

/// Frame type byte of every protocol message.
enum class MessageType : uint8_t {
  kLoadGraphRequest = 1,
  kLoadGraphReply = 2,
  kPartialsRequest = 3,
  kPartialsReply = 4,
  kEpochPrepareRequest = 5,
  kEpochPrepareReply = 6,
  // 7 and 8 are retired; never reuse them for a new message.
  kPingRequest = 9,
  kPingReply = 10,
  kShutdownRequest = 11,
  kShutdownReply = 12,
  kErrorReply = 13,
};

// --- Messages --------------------------------------------------------------

/// Bootstraps (or resets) a worker: the full graph, the DTLP build knobs,
/// and which shard of the resulting partition this worker owns. The worker
/// rebuilds the partition/index deterministically from these inputs, so its
/// subgraph state is identical to the coordinator's by construction.
struct LoadGraphRequest {
  ShardId shard_id = 0;
  uint32_t num_shards = 1;
  /// Which replica of the shard this worker is (diagnostics + ping echo).
  uint32_t replica_id = 0;
  /// Epoch the shipped weights correspond to. A freshly loaded worker
  /// starts at this epoch, not zero — the coordinator ships its latest
  /// checkpoint and replays only the batches committed after it.
  uint64_t base_epoch = 0;
  DtlpOptions dtlp;
  /// The graph: topology + initial vfrag weights + current weights.
  bool directed = false;
  uint64_t num_vertices = 0;
  std::vector<VertexId> edge_u;
  std::vector<VertexId> edge_v;
  std::vector<VfragCount> vfrags_fwd;
  std::vector<VfragCount> vfrags_bwd;
  std::vector<Weight> weights_fwd;
  std::vector<Weight> weights_bwd;

  /// Captures `graph` into the request fields.
  static LoadGraphRequest FromGraph(const Graph& graph, ShardId shard_id,
                                    uint32_t num_shards,
                                    const DtlpOptions& dtlp);
  /// Reconstructs the graph (validated; rejects corrupt payloads).
  Result<Graph> BuildGraph() const;

  std::string Encode() const;
  static Status Decode(std::string_view payload, LoadGraphRequest* out);
};

struct LoadGraphReply {
  uint64_t subgraphs_owned = 0;
  uint64_t vertices_owned = 0;

  std::string Encode() const;
  static Status Decode(std::string_view payload, LoadGraphReply* out);
};

/// One boundary-pair partial-list request: up to `depth` shortest paths
/// between x and y inside each of the named subgraphs (all owned by the
/// addressed worker). `epoch` is the coordinator's committed epoch — the
/// worker rejects a mismatch, which catches a worker that silently missed a
/// traffic batch before it can contribute stale paths.
struct PartialsRequest {
  uint64_t epoch = 0;
  VertexId x = kInvalidVertex;
  VertexId y = kInvalidVertex;
  uint64_t depth = 0;
  std::vector<SubgraphId> sgids;

  std::string Encode() const;
  static Status Decode(std::string_view payload, PartialsRequest* out);
};

/// Per-subgraph partial lists, in request order; paths carry global vertex
/// ids and bit-exact distances.
struct PartialsReply {
  std::vector<SubgraphPartials> lists;

  std::string Encode() const;
  static Status Decode(std::string_view payload, PartialsReply* out);
};

/// The cross-process traffic apply, one round: the full update batch for
/// `epoch` (== worker's current epoch + 1). The worker keeps the updates
/// its subgraphs own, runs Dtlp::ApplyUpdates on them (the coordinator's
/// Algorithm 2), and replies. Re-sending the epoch the worker already
/// prepared replays the stored reply (absolute weights make the apply
/// idempotent), so a retry after a lost reply is safe.
struct EpochPrepareRequest {
  uint64_t epoch = 0;
  std::vector<WeightUpdate> updates;

  std::string Encode() const;
  static Status Decode(std::string_view payload, EpochPrepareRequest* out);
};

struct EpochPrepareReply {
  uint64_t epoch = 0;
  /// Updates that landed in subgraphs this worker owns (the coordinator
  /// cross-checks this against its own per-shard count to detect
  /// divergence).
  uint64_t updates_applied = 0;
  /// Owned subgraphs touched by the batch.
  uint64_t subgraphs_touched = 0;

  std::string Encode() const;
  static Status Decode(std::string_view payload, EpochPrepareReply* out);
};

struct PingRequest {
  uint64_t nonce = 0;

  std::string Encode() const;
  static Status Decode(std::string_view payload, PingRequest* out);
};

struct PingReply {
  uint64_t nonce = 0;
  uint64_t epoch = 0;
  ShardId shard_id = kInvalidShard;
  uint32_t replica_id = 0;
  /// The worker's metrics registry, encoded with
  /// MetricsSnapshot::EncodeWire (opaque at this layer — the rpc module
  /// ships it, src/obs owns the codec). Empty when the worker exports no
  /// metrics; the coordinator tags decoded snapshots with the shard id and
  /// merges them into the fleet-wide export.
  std::string metrics_blob;

  std::string Encode() const;
  static Status Decode(std::string_view payload, PingReply* out);
};

/// Status carried back for any rejected request.
struct ErrorReply {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  static ErrorReply FromStatus(const Status& status);
  Status ToStatus() const;

  std::string Encode() const;
  static Status Decode(std::string_view payload, ErrorReply* out);
};

}  // namespace kspdg

#endif  // KSPDG_RPC_WIRE_H_
