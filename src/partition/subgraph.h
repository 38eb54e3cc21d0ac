// A subgraph produced by the BFS partitioner (§3.3): its own Graph over
// dense local vertex ids, plus the local<->global mappings and the list of
// boundary vertices. Subgraphs of a partition share vertices but never edges
// (Definition 2 + partitioning invariants).
//
// Construction protocol: AddVertex() all vertices, then FreezeVertices(),
// then AddGlobalEdge() the subgraph's edges.
#ifndef KSPDG_PARTITION_SUBGRAPH_H_
#define KSPDG_PARTITION_SUBGRAPH_H_

#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "graph/graph.h"

namespace kspdg {

class Subgraph {
 public:
  Subgraph(SubgraphId id, bool directed)
      : id_(id), directed_(directed), local_(0, directed) {}

  SubgraphId id() const { return id_; }
  const Graph& local() const { return local_; }
  Graph& mutable_local() { return local_; }

  size_t NumVertices() const { return global_of_.size(); }
  size_t NumEdges() const { return local_.NumEdges(); }

  /// Registers `global` as a vertex of this subgraph (idempotent); returns
  /// its local id. Must precede FreezeVertices().
  VertexId AddVertex(VertexId global);

  /// Creates the local graph over all registered vertices.
  void FreezeVertices();

  /// Adds the global edge `e` of `g` (both endpoints must be registered,
  /// FreezeVertices() must have been called). Local edge orientation matches
  /// the global edge (EdgeU -> EdgeV), so forward/backward weights carry
  /// over directly.
  EdgeId AddGlobalEdge(const Graph& g, EdgeId e);

  VertexId GlobalOf(VertexId local) const { return global_of_[local]; }
  VertexId LocalOf(VertexId global) const {
    auto it = local_of_.find(global);
    return it == local_of_.end() ? kInvalidVertex : it->second;
  }
  bool ContainsGlobal(VertexId global) const {
    return local_of_.count(global) > 0;
  }

  EdgeId GlobalEdgeOf(EdgeId local) const { return global_edge_of_[local]; }
  EdgeId LocalEdgeOf(EdgeId global) const {
    auto it = local_edge_of_.find(global);
    return it == local_edge_of_.end() ? kInvalidEdge : it->second;
  }

  /// Boundary vertices in local ids, sorted.
  const std::vector<VertexId>& boundary_local() const {
    return boundary_local_;
  }
  void SetBoundaryLocal(std::vector<VertexId> b) {
    boundary_local_ = std::move(b);
  }

  /// Applies a global-graph weight update to the local copy. Returns true if
  /// the edge belongs to this subgraph.
  bool ApplyUpdate(const WeightUpdate& global_update) {
    EdgeId local = LocalEdgeOf(global_update.edge);
    if (local == kInvalidEdge) return false;
    local_.SetWeight(
        {local, global_update.new_forward, global_update.new_backward});
    return true;
  }

 private:
  SubgraphId id_;
  bool directed_;
  Graph local_;
  std::vector<VertexId> global_of_;
  std::unordered_map<VertexId, VertexId> local_of_;
  std::vector<EdgeId> global_edge_of_;
  std::unordered_map<EdgeId, EdgeId> local_edge_of_;
  std::vector<VertexId> boundary_local_;
};

}  // namespace kspdg

#endif  // KSPDG_PARTITION_SUBGRAPH_H_
