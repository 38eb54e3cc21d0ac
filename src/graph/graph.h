// Dynamic weighted graph (Definition 1 of the paper).
//
// Topology is a fixed set of *roads* (vertex pairs); each road carries two
// dynamic weights, one per traversal direction. An *undirected* graph keeps
// the two directions equal at all times; a *directed* graph lets them evolve
// independently (§5.3 "Finding KSPs in directed graphs"). This representation
// gives all algorithms a single code path: traversing edge e out of vertex u
// costs WeightFrom(e, u).
//
// The *initial* integer weight of each direction is its virtual-fragment
// (vfrag) count (§3.4); it never changes after construction.
#ifndef KSPDG_GRAPH_GRAPH_H_
#define KSPDG_GRAPH_GRAPH_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace kspdg {

/// One directed weight-change event, the unit of dynamism in the system.
struct WeightUpdate {
  EdgeId edge = kInvalidEdge;
  Weight new_forward = 0;   // weight for u -> v
  Weight new_backward = 0;  // weight for v -> u (== new_forward if undirected)
};

/// Adjacency entry: the neighbouring vertex and the connecting edge.
struct Arc {
  VertexId to = kInvalidVertex;
  EdgeId edge = kInvalidEdge;
};

class Graph {
 public:
  /// Creates an empty graph with `num_vertices` vertices and no edges.
  explicit Graph(size_t num_vertices = 0, bool directed = false)
      : directed_(directed), adjacency_(num_vertices) {}

  static Graph Undirected(size_t num_vertices) {
    return Graph(num_vertices, /*directed=*/false);
  }
  static Graph Directed(size_t num_vertices) {
    return Graph(num_vertices, /*directed=*/true);
  }

  bool directed() const { return directed_; }
  size_t NumVertices() const { return adjacency_.size(); }
  size_t NumEdges() const { return edge_u_.size(); }

  /// Adds a road between u and v. `w0_fwd` / `w0_bwd` are the initial integer
  /// weights (== vfrag counts) of the two directions; for undirected graphs
  /// they must match. Returns the new edge id. Self loops and zero weights
  /// are rejected with kInvalidEdge (callers validate via HasVertex first).
  EdgeId AddEdge(VertexId u, VertexId v, VfragCount w0_fwd,
                 VfragCount w0_bwd) {
    assert(u < NumVertices() && v < NumVertices());
    assert(u != v && "self loops are not allowed in road networks");
    assert(w0_fwd > 0 && w0_bwd > 0);
    if (!directed_) assert(w0_fwd == w0_bwd);
    EdgeId id = static_cast<EdgeId>(edge_u_.size());
    edge_u_.push_back(u);
    edge_v_.push_back(v);
    vfrags_fwd_.push_back(w0_fwd);
    vfrags_bwd_.push_back(w0_bwd);
    weight_fwd_.push_back(static_cast<Weight>(w0_fwd));
    weight_bwd_.push_back(static_cast<Weight>(w0_bwd));
    adjacency_[u].push_back({v, id});
    adjacency_[v].push_back({u, id});
    return id;
  }

  /// Convenience overload for symmetric initial weights.
  EdgeId AddEdge(VertexId u, VertexId v, VfragCount w0) {
    return AddEdge(u, v, w0, w0);
  }

  std::span<const Arc> Neighbors(VertexId v) const {
    assert(v < NumVertices());
    return adjacency_[v];
  }

  size_t Degree(VertexId v) const { return adjacency_[v].size(); }

  VertexId EdgeU(EdgeId e) const { return edge_u_[e]; }
  VertexId EdgeV(EdgeId e) const { return edge_v_[e]; }

  /// The endpoint of `e` that is not `from`.
  VertexId OtherEndpoint(EdgeId e, VertexId from) const {
    return edge_u_[e] == from ? edge_v_[e] : edge_u_[e];
  }

  /// Current weight for traversing `e` out of vertex `from`.
  Weight WeightFrom(EdgeId e, VertexId from) const {
    return edge_u_[e] == from ? weight_fwd_[e] : weight_bwd_[e];
  }

  /// Vfrag count for traversing `e` out of vertex `from` (static).
  VfragCount VfragsFrom(EdgeId e, VertexId from) const {
    return edge_u_[e] == from ? vfrags_fwd_[e] : vfrags_bwd_[e];
  }

  Weight ForwardWeight(EdgeId e) const { return weight_fwd_[e]; }
  Weight BackwardWeight(EdgeId e) const { return weight_bwd_[e]; }
  VfragCount ForwardVfrags(EdgeId e) const { return vfrags_fwd_[e]; }
  VfragCount BackwardVfrags(EdgeId e) const { return vfrags_bwd_[e]; }

  /// Applies one weight update. Undirected graphs force both directions to
  /// `new_forward`.
  void SetWeight(const WeightUpdate& upd) {
    assert(upd.edge < NumEdges());
    assert(upd.new_forward > 0 && upd.new_backward > 0);
    weight_fwd_[upd.edge] = upd.new_forward;
    weight_bwd_[upd.edge] = directed_ ? upd.new_backward : upd.new_forward;
  }

  void SetWeight(EdgeId e, Weight w) { SetWeight({e, w, w}); }

  /// Unit weight (weight per vfrag, §3.4) of direction u->v of edge `e`.
  Weight UnitWeightFrom(EdgeId e, VertexId from) const {
    return WeightFrom(e, from) / static_cast<Weight>(VfragsFrom(e, from));
  }

  /// Looks up the edge between u and v, or kInvalidEdge if absent.
  /// Linear in Degree(u); road networks have tiny degrees.
  EdgeId FindEdge(VertexId u, VertexId v) const {
    for (const Arc& a : adjacency_[u]) {
      if (a.to == v) return a.edge;
    }
    return kInvalidEdge;
  }

  /// Resets all weights to their initial (vfrag) values.
  void ResetWeights() {
    for (size_t e = 0; e < NumEdges(); ++e) {
      weight_fwd_[e] = static_cast<Weight>(vfrags_fwd_[e]);
      weight_bwd_[e] = static_cast<Weight>(vfrags_bwd_[e]);
    }
  }

  /// Snapshot of the two weight arrays; used to implement the Gcurr buffer.
  struct WeightVector {
    std::vector<Weight> forward;
    std::vector<Weight> backward;
    uint64_t version = 0;
  };

  WeightVector SnapshotWeights(uint64_t version = 0) const {
    return WeightVector{weight_fwd_, weight_bwd_, version};
  }

  /// Restores a previously captured snapshot (sizes must match).
  Status RestoreWeights(const WeightVector& snap) {
    if (snap.forward.size() != NumEdges() ||
        snap.backward.size() != NumEdges()) {
      return Status::InvalidArgument("weight snapshot size mismatch");
    }
    weight_fwd_ = snap.forward;
    weight_bwd_ = snap.backward;
    return Status::OK();
  }

  /// True if every vertex can reach every other (ignoring direction).
  bool IsConnected() const;

 private:
  bool directed_;
  std::vector<std::vector<Arc>> adjacency_;
  // Struct-of-arrays edge storage: better locality for the weight scans the
  // index-maintenance path performs.
  std::vector<VertexId> edge_u_;
  std::vector<VertexId> edge_v_;
  std::vector<VfragCount> vfrags_fwd_;
  std::vector<VfragCount> vfrags_bwd_;
  std::vector<Weight> weight_fwd_;
  std::vector<Weight> weight_bwd_;
};

/// Checks a traffic batch against a graph of `num_edges` edges: every
/// update names an existing edge and both new weights are positive. The
/// coordinator and every shard worker run this one check, so a batch one
/// side accepts the other does too. Returns the first violation as
/// kInvalidArgument.
Status ValidateWeightUpdates(size_t num_edges,
                             std::span<const WeightUpdate> updates);

}  // namespace kspdg

#endif  // KSPDG_GRAPH_GRAPH_H_
