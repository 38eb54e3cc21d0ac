// Dynamic travel-time evolution (§6.2).
//
// The paper varies travel times with the time-varying model of Fleischmann
// et al. [5], parameterised by α (fraction of edges whose weight changes per
// snapshot) and τ (relative variation range). We reproduce exactly that
// parameterisation: at each step, α·|E| distinct random edges receive a new
// weight w0·(1 + u), u ~ Uniform[−τ, τ], anchored to the initial weight so
// traffic oscillates around the free-flow travel time instead of drifting.
#ifndef KSPDG_GRAPH_TRAFFIC_MODEL_H_
#define KSPDG_GRAPH_TRAFFIC_MODEL_H_

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "graph/graph.h"

namespace kspdg {

struct TrafficModelOptions {
  /// Fraction of edges changing weight at each snapshot (default α = 35%).
  double alpha = 0.35;
  /// Relative variation range (default τ = 30%): new = w0 * (1 + U[-τ, τ]).
  double tau = 0.30;
  /// If true (and the graph is directed), the two directions of an edge
  /// receive independently drawn variations; otherwise they change
  /// identically, which is how the paper simulates "varying undirected
  /// graphs" on directed datasets.
  bool independent_directions = false;
  uint64_t seed = 7;
};

/// Generates batches of WeightUpdate events against a fixed graph topology.
class TrafficModel {
 public:
  TrafficModel(const Graph& graph, const TrafficModelOptions& options);

  /// Produces the next snapshot's updates without applying them.
  std::vector<WeightUpdate> NextBatch();

  /// Produces a batch of exactly `count` updates (used by throughput tests).
  std::vector<WeightUpdate> NextBatchOfSize(size_t count);

  /// Convenience: generate a batch and apply it to `graph` (which must share
  /// the topology of the construction-time graph).
  std::vector<WeightUpdate> Step(Graph& graph);

  const TrafficModelOptions& options() const { return options_; }

 private:
  WeightUpdate MakeUpdate(EdgeId e);

  const Graph* graph_;  // topology + initial weights (not owned)
  TrafficModelOptions options_;
  Rng rng_;
  std::vector<EdgeId> shuffle_;  // reusable edge permutation buffer
};

}  // namespace kspdg

#endif  // KSPDG_GRAPH_TRAFFIC_MODEL_H_
