// Level 2 of DTLP: the skeleton graph Gλ (§3.6).
//
// Vertices are all boundary vertices of all subgraphs; an edge connects two
// boundary vertices iff they co-occur in some subgraph, weighted by the
// minimum lower bound distance (MBD) over the contributing subgraphs. The
// weights change as traffic evolves, the topology never does.
//
// SkeletonOverlay adds the (possibly non-boundary) query endpoints with
// lower-bound edges to the boundary vertices of their subgraphs (§5.3)
// without copying the base graph, and satisfies the SearchGraph concept so
// reference paths come straight from YenEnumerator<SkeletonOverlay>.
#ifndef KSPDG_DTLP_SKELETON_GRAPH_H_
#define KSPDG_DTLP_SKELETON_GRAPH_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "graph/graph.h"

namespace kspdg {

/// Dense id of a vertex within the skeleton graph (or an overlay).
using SkeletonId = uint32_t;

/// Order-independent key of a skeleton vertex pair (shared by the base
/// graph's edge map and the overlay's temp-edge map).
inline uint64_t SkeletonPairKey(SkeletonId a, SkeletonId b) {
  SkeletonId lo = a < b ? a : b;
  SkeletonId hi = a < b ? b : a;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

class SkeletonGraph {
 public:
  explicit SkeletonGraph(bool directed = false) : directed_(directed) {}

  /// Registers all boundary vertices (global ids). Must precede AddEdges.
  void SetVertices(const std::vector<VertexId>& boundary_global);

  /// Records subgraph `sg`'s lower bound for the ordered pair (a, b) of
  /// global vertex ids; creates the skeleton edge on first contribution.
  /// In undirected mode the bound applies to both directions.
  void SetContribution(SubgraphId sg, VertexId a_global, VertexId b_global,
                       Weight lbd);

  // --- SearchGraph concept -------------------------------------------------
  size_t NumVertices() const { return global_of_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  std::span<const Arc> Neighbors(SkeletonId v) const { return adjacency_[v]; }
  Weight CostFrom(EdgeId e, SkeletonId from) const {
    const EdgeRec& rec = edges_[e];
    return rec.u == from ? rec.weight_fwd : rec.weight_bwd;
  }
  // -------------------------------------------------------------------------

  bool directed() const { return directed_; }

  SkeletonId IdOfGlobal(VertexId global) const {
    auto it = id_of_global_.find(global);
    return it == id_of_global_.end() ? kInvalidVertex : it->second;
  }
  VertexId GlobalOf(SkeletonId id) const { return global_of_[id]; }
  bool ContainsGlobal(VertexId global) const {
    return id_of_global_.count(global) > 0;
  }

 private:
  struct Contribution {
    SubgraphId subgraph;
    Weight fwd = kInfiniteWeight;  // bound for u -> v
    Weight bwd = kInfiniteWeight;  // bound for v -> u
  };
  struct EdgeRec {
    SkeletonId u, v;
    Weight weight_fwd = kInfiniteWeight;  // MBD(u, v)
    Weight weight_bwd = kInfiniteWeight;  // MBD(v, u)
    std::vector<Contribution> contributions;
  };

  void RecomputeEdgeWeight(EdgeRec& rec);

  bool directed_;
  std::vector<VertexId> global_of_;
  std::unordered_map<VertexId, SkeletonId> id_of_global_;
  std::vector<EdgeRec> edges_;
  std::unordered_map<uint64_t, EdgeId> edge_of_pair_;
  std::vector<std::vector<Arc>> adjacency_;
};

/// Read-only view over a SkeletonGraph plus up to a few temporary vertices
/// (query endpoints) and temporary lower-bound edges. Satisfies the
/// SearchGraph concept; temporary vertices get ids >= base.NumVertices() and
/// temporary edges ids >= base.NumEdges().
class SkeletonOverlay {
 public:
  explicit SkeletonOverlay(const SkeletonGraph& base) : base_(&base) {}

  /// Adds a temporary vertex for `global` and returns its overlay id.
  SkeletonId AddTempVertex(VertexId global);

  /// Adds a temporary edge between overlay ids a and b with per-direction
  /// lower-bound weights (a->b, b->a).
  void AddTempEdge(SkeletonId a, SkeletonId b, Weight w_ab, Weight w_ba);

  /// Overlay id of a global vertex: base skeleton id, or temp id, or
  /// kInvalidVertex.
  SkeletonId IdOfGlobal(VertexId global) const;
  VertexId GlobalOf(SkeletonId id) const;

  // --- SearchGraph concept -------------------------------------------------
  size_t NumVertices() const { return base_->NumVertices() + temp_global_.size(); }
  size_t NumEdges() const { return base_->NumEdges() + temp_edges_.size(); }

  /// Lazily materialised neighbor list: base arcs plus temp arcs.
  std::span<const Arc> Neighbors(SkeletonId v) const;

  Weight CostFrom(EdgeId e, SkeletonId from) const {
    if (e < base_->NumEdges()) return base_->CostFrom(e, from);
    const TempEdge& te = temp_edges_[e - base_->NumEdges()];
    return te.a == from ? te.w_ab : te.w_ba;
  }
  // -------------------------------------------------------------------------

 private:
  struct TempEdge {
    SkeletonId a, b;
    Weight w_ab, w_ba;
  };

  const SkeletonGraph* base_;
  std::vector<VertexId> temp_global_;
  std::unordered_map<VertexId, SkeletonId> temp_id_of_global_;
  /// Unordered overlay-id pair -> index into temp_edges_, so repeated
  /// contributions to the same pair merge in O(1).
  std::unordered_map<uint64_t, size_t> temp_edge_of_pair_;
  /// Extra arcs per overlay vertex (sparse map: only endpoints of temp
  /// edges appear).
  std::unordered_map<SkeletonId, std::vector<Arc>> extra_arcs_;
  std::vector<TempEdge> temp_edges_;
  /// Scratch buffer for Neighbors() of vertices that mix base and temp arcs.
  mutable std::vector<Arc> neighbor_scratch_;
};

}  // namespace kspdg

#endif  // KSPDG_DTLP_SKELETON_GRAPH_H_
