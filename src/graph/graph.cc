#include "graph/graph.h"

#include <string>
#include <vector>

namespace kspdg {

bool Graph::IsConnected() const {
  if (NumVertices() == 0) return true;
  std::vector<char> seen(NumVertices(), 0);
  std::vector<VertexId> stack = {0};
  seen[0] = 1;
  size_t count = 1;
  while (!stack.empty()) {
    VertexId u = stack.back();
    stack.pop_back();
    for (const Arc& a : Neighbors(u)) {
      if (!seen[a.to]) {
        seen[a.to] = 1;
        ++count;
        stack.push_back(a.to);
      }
    }
  }
  return count == NumVertices();
}

Status ValidateWeightUpdates(size_t num_edges,
                             std::span<const WeightUpdate> updates) {
  for (const WeightUpdate& update : updates) {
    if (update.edge >= num_edges) {
      return Status::InvalidArgument(
          "update references edge " + std::to_string(update.edge) +
          " out of range (graph has " + std::to_string(num_edges) +
          " edges)");
    }
    if (!(update.new_forward > 0) || !(update.new_backward > 0)) {
      return Status::InvalidArgument("updated weights must be positive");
    }
  }
  return Status::OK();
}

}  // namespace kspdg
