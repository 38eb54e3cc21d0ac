// Diversity-aware KSP selection (the kDiverseKsp query kind).
//
// The facade over-fetches k' = k * overfetch candidate paths through the
// normal solver path, then SelectDiversePaths greedily keeps candidates in
// KSP order, rejecting any candidate whose exact edge-set Jaccard
// similarity with an already-kept route exceeds θ — so the kept set is
// precisely the greedy pairwise-dissimilar subset.
//
// Everything here is a pure, deterministic function of (candidates, k,
// options): no clocks, no global state — which is what keeps sharded
// diverse answers byte-identical to unsharded ones.
#ifndef KSPDG_MFP_DIVERSITY_H_
#define KSPDG_MFP_DIVERSITY_H_

#include <cstdint>
#include <vector>

#include "ksp/path.h"

namespace kspdg {

/// Knobs of the kDiverseKsp pipeline. Layered into RoutingOptions like every
/// other knob: service-wide defaults, per-request overrides for θ and the
/// over-fetch factor.
struct DiversityOptions {
  /// θ: maximum allowed pairwise Jaccard similarity (over edge sets) among
  /// the returned routes. 0 keeps only edge-disjoint routes; 1 disables
  /// filtering.
  double theta = 0.5;
  /// Over-fetch factor: the solver is asked for k' = k * overfetch
  /// candidates before filtering down to k pairwise-dissimilar ones.
  uint32_t overfetch = 4;
};

/// Outcome of one diversity selection; the kind-specific payload of a
/// kDiverseKsp RouteResponse.
struct DiverseStats {
  /// Candidate paths the solver actually returned (<= k').
  uint32_t candidates = 0;
  /// Routes kept (== the response's path count; <= k).
  uint32_t kept = 0;
  /// candidates - kept.
  uint32_t filtered = 0;
  /// Exact Jaccard evaluations performed by the greedy filter (one per
  /// (candidate, kept) pair examined).
  uint32_t exact_checks = 0;
  /// Exact pairwise Jaccard over the kept set (0 when < 2 routes kept).
  /// max_pairwise_similarity <= θ by construction.
  double mean_pairwise_similarity = 0;
  double max_pairwise_similarity = 0;
};

/// Greedily selects <= k pairwise-dissimilar routes from `candidates`
/// (which must be in the deterministic KSP order the solvers produce) and
/// fills `kept`. `directed` controls edge identity: ordered vertex pairs in
/// directed graphs, normalised pairs otherwise. Pure and deterministic.
DiverseStats SelectDiversePaths(const std::vector<Path>& candidates,
                                uint32_t k, bool directed,
                                const DiversityOptions& options,
                                std::vector<Path>* kept);

/// Exact Jaccard similarity of two routes' edge sets (helper shared with
/// tests and the bench; SelectDiversePaths uses it internally).
double RouteEdgeJaccard(const Path& a, const Path& b, bool directed);

}  // namespace kspdg

#endif  // KSPDG_MFP_DIVERSITY_H_
