// Level 1 of the DTLP index for one subgraph (§3.4-3.5, §3.7):
//   * bounding paths between every pair of boundary vertices — the ξ paths
//     with the fewest distinct virtual-fragment counts; computed once, never
//     recomputed as weights change;
//   * the EP-Index mapping each edge to the bounding paths crossing it, used
//     to maintain path distances incrementally under weight updates;
//   * the unit-weight pool, giving bound distances (sum of the φ smallest
//     unit weights);
//   * lower bound distances per pair, via Theorem 1.
#ifndef KSPDG_DTLP_SUBGRAPH_INDEX_H_
#define KSPDG_DTLP_SUBGRAPH_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"
#include "dtlp/unit_weight_pool.h"
#include "graph/graph.h"
#include "partition/subgraph.h"

namespace kspdg {

struct DtlpIndexOptions {
  /// ξ: maximum number of bounding paths (distinct vfrag counts) per pair.
  uint32_t xi = 5;
};

/// One bounding path (all ids are subgraph-local).
struct BoundingPath {
  std::vector<VertexId> verts;
  std::vector<EdgeId> edges;
  /// uses_forward[i] != 0 iff edges[i] is traversed in its u->v direction;
  /// needed to apply directional weight deltas in directed mode.
  std::vector<char> uses_forward;
  VfragCount vfrags = 0;   // φ(P): static
  Weight distance = 0;     // D(P): maintained incrementally
  uint32_t pair_index = 0;
};

/// Lower-bound state for one boundary pair. In undirected mode pairs are
/// unordered (src < dst); in directed mode both orders appear.
struct BoundaryPairEntry {
  VertexId src = kInvalidVertex;  // local id
  VertexId dst = kInvalidVertex;  // local id
  std::vector<uint32_t> paths;    // indices into paths(), sorted by vfrags
  Weight lbd = kInfiniteWeight;   // LBD(src, dst) in this subgraph
  /// True when Theorem 1 case (1) applied: lbd equals the exact shortest
  /// distance between src and dst within the subgraph.
  bool exact = false;
};

class SubgraphIndex {
 public:
  SubgraphIndex(const Subgraph* subgraph, const DtlpIndexOptions& options);

  /// Computes bounding paths for all boundary pairs and the initial lower
  /// bounds. Cost dominates DTLP construction.
  void Build();

  /// Notifies the index that the local weight of `local_edge` changed from
  /// (old_fwd, old_bwd) to the subgraph's current values. Updates bounding-
  /// path distances through the EP-Index and marks the index dirty.
  void OnWeightChange(EdgeId local_edge, Weight old_fwd, Weight old_bwd);

  /// Rebuilds the unit-weight pool and recomputes the per-pair lower bounds
  /// (Theorem 1) if the index is dirty. Returns true if any pair's LBD
  /// changed.
  bool Refresh();

  const Subgraph& subgraph() const { return *subgraph_; }
  const std::vector<BoundingPath>& paths() const { return paths_; }
  const std::vector<BoundaryPairEntry>& pairs() const { return pairs_; }

  /// Bounding paths crossing `local_edge` (EP-Index lookup).
  const std::vector<uint32_t>& PathsThroughEdge(EdgeId local_edge) const {
    return ep_index_[local_edge];
  }

  /// Query-time §5.3 support: lower bound distances from `local_vertex` to
  /// every boundary vertex of the subgraph. If `from_vertex` is true the
  /// direction is vertex->boundary (query source), else boundary->vertex
  /// (query target); the distinction matters only in directed mode.
  /// Returns (boundary_local_id, lbd) pairs; unreachable ones are skipped.
  std::vector<std::pair<VertexId, Weight>> LowerBoundsToBoundary(
      VertexId local_vertex, bool from_vertex) const;

  /// On-the-fly LBD between two arbitrary local vertices (used when both
  /// query endpoints fall in the same subgraph). kInfiniteWeight if
  /// disconnected within the subgraph.
  Weight LowerBoundBetween(VertexId src_local, VertexId dst_local) const;

 private:
  /// Collects bounding paths from src to dst and appends them to paths_,
  /// returning their indices (sorted by vfrags ascending).
  std::vector<uint32_t> CollectBoundingPaths(VertexId src, VertexId dst,
                                             uint32_t pair_index);

  /// Theorem 1: derives the LBD of a pair from its paths and the pool.
  void RecomputePairBound(BoundaryPairEntry& pair);

  const Subgraph* subgraph_;
  DtlpIndexOptions options_;
  UnitWeightPool pool_;
  std::vector<BoundingPath> paths_;
  std::vector<BoundaryPairEntry> pairs_;
  std::vector<std::vector<uint32_t>> ep_index_;  // local edge -> path ids
  bool dirty_ = false;
};

}  // namespace kspdg

#endif  // KSPDG_DTLP_SUBGRAPH_INDEX_H_
