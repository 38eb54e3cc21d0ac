// ShardBackend: how a query's boundary-pair partials, and a traffic batch's
// subgraph slices, reach the owner of each subgraph.
//
// RoutingService is the one coordinator of the paper's deployment (§4): it
// owns the graph, the DTLP master (partition, level-1 indexes, skeleton),
// CANDS, the epoch protocol, and the serving surface. The subgraphs of the
// partition are split over N shards (partition/shard_assignment.h), and the
// coordinator hands every per-shard piece of work to its backend:
//
//   in-process (the default)  each shard is a slice of the coordinator's own
//                             DTLP; a partial fetch runs PartialsInSubgraph
//                             inline, and the coordinator's master apply of
//                             Algorithm 2 is every shard's whole update.
//   RPC replica set           each shard is a set of shard_worker processes
//                             (src/remote); a fetch is a PartialsRequest to
//                             one replica with failover, and a traffic batch
//                             is one apply RPC per live replica, in which
//                             each worker runs Dtlp::ApplyUpdates on its
//                             owned updates.
//
// Everything else — grouping a boundary pair's subgraphs by shard, the
// per-(shard, worker) partial caches, the MergeSubgraphPartials gather, the
// query-poisoning error path, and traffic validation (ValidateWeightUpdates)
// — lives in the coordinator once, so both backends share it.
#ifndef KSPDG_API_SHARD_BACKEND_H_
#define KSPDG_API_SHARD_BACKEND_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"
#include "core/types.h"
#include "kspdg/partial_provider.h"
#include "partition/shard_assignment.h"

namespace kspdg {

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Appends one partial list per subgraph of `owned` (ascending ids, all
  /// owned by `shard`), in `owned` order: the up-to-`depth` shortest x -> y
  /// paths inside that subgraph, in global ids, at weight epoch `epoch`.
  /// Called under a shared hold of the coordinator's snapshot lock.
  /// A non-OK status poisons the query that asked (its answer is discarded).
  virtual Status FetchPartials(ShardId shard,
                               std::span<const SubgraphId> owned, VertexId x,
                               VertexId y, size_t depth, uint64_t epoch,
                               std::vector<SubgraphPartials>* lists) const = 0;

  /// Moves the shard owners to `epoch` with `updates`, of which
  /// `updates_of_shard[s]` fall in shard s's subgraphs. Runs under the
  /// coordinator's exclusive snapshot lock, after its own master apply. The
  /// coordinator publishes `epoch` afterwards: its master copy is the source
  /// of truth, so an owner that fails here must take itself out of the read
  /// path rather than fail the batch.
  virtual void Apply(uint64_t /*epoch*/,
                     std::span<const WeightUpdate> /*updates*/,
                     std::span<const uint64_t> /*updates_of_shard*/) {}
};

}  // namespace kspdg

#endif  // KSPDG_API_SHARD_BACKEND_H_
