#include "ksp/findksp.h"

#include "ksp/dijkstra.h"
#include "ksp/search_graph.h"
#include "ksp/yen.h"

namespace kspdg {

std::vector<Path> FindKsp(const Graph& g, VertexId s, VertexId t, size_t k) {
  GraphCostView view(g, CostKind::kCurrentWeight);
  // Reverse SPT rooted at t: exact remaining-distance heuristic.
  DijkstraSearch<GraphCostView> search(view);
  std::vector<Weight> to_target;
  search.ComputeTree(t, /*reverse=*/true, &to_target);
  if (to_target[s] == kInfiniteWeight) return {};
  return YenKsp(view, s, t, k, &to_target);
}

std::vector<Path> YenKspInGraph(const Graph& g, VertexId s, VertexId t,
                                size_t k) {
  GraphCostView view(g, CostKind::kCurrentWeight);
  return YenKsp(view, s, t, k);
}

std::optional<Path> ShortestPathInGraph(const Graph& g, VertexId s,
                                        VertexId t) {
  GraphCostView view(g, CostKind::kCurrentWeight);
  DijkstraSearch<GraphCostView> search(view);
  return search.ShortestPath(s, t);
}

}  // namespace kspdg
