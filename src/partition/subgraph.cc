#include "partition/subgraph.h"

#include <cassert>

namespace kspdg {

VertexId Subgraph::AddVertex(VertexId global) {
  auto it = local_of_.find(global);
  if (it != local_of_.end()) return it->second;
  assert(local_.NumVertices() == 0 && "AddVertex after FreezeVertices");
  VertexId local = static_cast<VertexId>(global_of_.size());
  global_of_.push_back(global);
  local_of_.emplace(global, local);
  return local;
}

void Subgraph::FreezeVertices() {
  assert(local_.NumEdges() == 0);
  local_ = Graph(global_of_.size(), directed_);
}

EdgeId Subgraph::AddGlobalEdge(const Graph& g, EdgeId e) {
  assert(local_.NumVertices() == global_of_.size() &&
         "FreezeVertices must run before AddGlobalEdge");
  VertexId lu = LocalOf(g.EdgeU(e));
  VertexId lv = LocalOf(g.EdgeV(e));
  assert(lu != kInvalidVertex && lv != kInvalidVertex);
  EdgeId local =
      local_.AddEdge(lu, lv, g.ForwardVfrags(e), g.BackwardVfrags(e));
  local_.SetWeight({local, g.ForwardWeight(e), g.BackwardWeight(e)});
  global_edge_of_.push_back(e);
  local_edge_of_.emplace(e, local);
  return local;
}

}  // namespace kspdg
