// FindKSP baseline (stand-in for Liu et al., "Finding top-k shortest paths
// with diversity", TKDE 2018 — reference [21] of the paper).
//
// Like the original, it is a centralized deviation-based KSP algorithm that
// accelerates candidate generation with a Shortest Path Tree rooted at the
// destination: the reverse SPT distances are an exact (hence admissible)
// heuristic for the unconstrained graph and remain admissible once Yen's
// bans remove edges, so every spur search becomes a goal-directed A* that
// settles far fewer vertices than plain Dijkstra.
#ifndef KSPDG_KSP_FINDKSP_H_
#define KSPDG_KSP_FINDKSP_H_

#include <vector>

#include "graph/graph.h"
#include "ksp/path.h"

namespace kspdg {

/// Computes up to k shortest loopless paths from s to t under current
/// weights, using SPT-guided deviation search.
std::vector<Path> FindKsp(const Graph& g, VertexId s, VertexId t, size_t k);

}  // namespace kspdg

#endif  // KSPDG_KSP_FINDKSP_H_
