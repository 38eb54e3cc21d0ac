// Independent answer checking. The oracle replays the logged traffic
// batches onto its own copy of the graph, so it sees the exact weights of
// every epoch, and checks each answer against the baselines in src/ksp:
//
//   kKsp           distance vector equals FindKsp's (relative 1e-6)
//   kShortestPath  distance equals ShortestPathInGraph's
//   kDiverseKsp    at most k routes, pairwise edge Jaccard <= θ, and the
//                  first route is a shortest path
//   every path     simple, from source to target, ascending, and its
//                  recomputed length equals its reported distance
//
// FindKsp itself is checked against YenKspInGraph on the first 16 kKsp
// answers of the run; a disagreement means the oracle cannot be trusted.
#ifndef KSPDG_BENCH_ORACLE_H_
#define KSPDG_BENCH_ORACLE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "workloads.h"

namespace kspdg::bench {

struct OracleReport {
  size_t checked = 0;
  /// Answers that came back with a non-OK status (errors and shed work).
  size_t errors = 0;
  size_t mismatches = 0;
  size_t invalid_paths = 0;
  /// False when FindKsp and Yen disagree (the run must abort).
  bool oracle_agrees = true;
  size_t sanity_checked = 0;
  /// Wall time of each Yen call made by the sanity check.
  std::vector<double> yen_ms;
  /// Human-readable description of the first problem found.
  std::string first_problem;

  size_t failed() const { return errors + mismatches + invalid_paths; }
};

OracleReport CheckAnswers(const RunLog& log);

/// Equal lengths and pairwise equal distances (relative tolerance 1e-6).
bool SameDistances(const std::vector<Path>& a, const std::vector<Path>& b);

}  // namespace kspdg::bench

#endif  // KSPDG_BENCH_ORACLE_H_
