// Fundamental identifier and numeric types shared by every module.
#ifndef KSPDG_CORE_TYPES_H_
#define KSPDG_CORE_TYPES_H_

#include <cstdint>
#include <limits>

namespace kspdg {

/// Identifier of a vertex in the original graph G (dense, 0-based).
using VertexId = uint32_t;

/// Identifier of an edge in the original graph G (dense, 0-based). An
/// undirected edge has a single EdgeId regardless of traversal direction.
using EdgeId = uint32_t;

/// Identifier of a subgraph produced by the partitioner.
using SubgraphId = uint32_t;

/// Current (dynamic) weight of an edge. Weights evolve with traffic but are
/// always strictly positive.
using Weight = double;

/// Number of virtual fragments (vfrags) of an edge or a path. The vfrag count
/// of an edge equals its *initial* integer weight and never changes (§3.4).
using VfragCount = uint64_t;

inline constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();
inline constexpr SubgraphId kInvalidSubgraph =
    std::numeric_limits<SubgraphId>::max();
inline constexpr Weight kInfiniteWeight =
    std::numeric_limits<Weight>::infinity();

/// Tolerance used when comparing path distances assembled in different orders.
inline constexpr Weight kWeightEpsilon = 1e-7;

/// Returns true if |a| and |b| are equal up to accumulated floating error.
inline bool WeightsEqual(Weight a, Weight b) {
  Weight diff = a > b ? a - b : b - a;
  Weight scale = (a > b ? a : b);
  if (scale < 1.0) scale = 1.0;
  return diff <= kWeightEpsilon * scale;
}

/// Returns true if a < b beyond floating tolerance.
inline bool WeightLess(Weight a, Weight b) {
  return a < b && !WeightsEqual(a, b);
}

}  // namespace kspdg

#endif  // KSPDG_CORE_TYPES_H_
