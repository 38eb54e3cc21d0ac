// The Distributed Two-Level Path index (DTLP, §3): owns the partition with
// its per-subgraph weight copies, one SubgraphIndex (level 1) per subgraph,
// and the skeleton graph Gλ (level 2). Implements Algorithm 1 (build) and
// Algorithm 2 (update).
#ifndef KSPDG_DTLP_DTLP_H_
#define KSPDG_DTLP_DTLP_H_

#include <memory>
#include <span>
#include <vector>

#include "core/status.h"
#include "core/types.h"
#include "dtlp/skeleton_graph.h"
#include "dtlp/subgraph_index.h"
#include "graph/graph.h"
#include "partition/partitioner.h"

namespace kspdg {

struct DtlpOptions {
  /// z: maximum vertices per subgraph.
  PartitionOptions partition;
  /// ξ and related level-1 knobs.
  DtlpIndexOptions index;
  /// Threads used for the per-subgraph build (1 = sequential). Models the
  /// number of servers constructing the index in parallel (Figure 42).
  unsigned build_threads = 1;
};

struct DtlpUpdateStats {
  size_t updates_applied = 0;
  size_t subgraphs_touched = 0;
  size_t skeleton_pairs_refreshed = 0;
};

class Dtlp {
 public:
  /// Partitions `g` and builds both index levels (Algorithm 1).
  static Result<std::unique_ptr<Dtlp>> Build(const Graph& g,
                                             const DtlpOptions& options);

  /// Applies a batch of weight updates (Algorithm 2) — the one
  /// implementation every deployment runs. The batch is grouped per owning
  /// subgraph, keeping batch order within each group; the touched subgraphs
  /// then update their weight copies, maintain their bounding-path distances
  /// through the EP-Index and recompute their lower bounds in parallel
  /// (options().build_threads, the servers owning them); finally the
  /// refreshed bounds enter Gλ serially, in ascending subgraph order.
  /// Updates naming an edge outside every subgraph are skipped.
  DtlpUpdateStats ApplyUpdates(std::span<const WeightUpdate> updates);

  const Graph& graph() const { return *graph_; }
  const Partition& partition() const { return *partition_; }
  const SkeletonGraph& skeleton() const { return skeleton_; }
  const DtlpOptions& options() const { return options_; }

  size_t NumSubgraphs() const { return partition_->subgraphs.size(); }
  const SubgraphIndex& index(SubgraphId sg) const { return indexes_[sg]; }

  /// Memory accounting for the construction-cost figures.
  size_t EpIndexMemoryBytes() const;
  size_t SkeletonMemoryBytes() const { return skeleton_.MemoryBytes(); }

 private:
  Dtlp(const Graph& g, DtlpOptions options)
      : graph_(&g), options_(std::move(options)) {}

  /// Applies updates that all belong to subgraph `sg` (weight copies +
  /// level-1 maintenance), in order. Does not touch the skeleton; safe to
  /// run concurrently for distinct subgraphs.
  void ApplyUpdatesToSubgraph(SubgraphId sg,
                              std::span<const WeightUpdate> updates);

  /// Re-publishes subgraph `sg`'s pair bounds into the skeleton graph.
  /// Not thread-safe.
  void PushSubgraphBoundsToSkeleton(SubgraphId sg);

  const Graph* graph_;  // original graph (not owned; topology + vfrags only)
  DtlpOptions options_;
  std::unique_ptr<Partition> partition_;  // owns subgraph weight copies
  std::vector<SubgraphIndex> indexes_;
  SkeletonGraph skeleton_;
};

}  // namespace kspdg

#endif  // KSPDG_DTLP_DTLP_H_
