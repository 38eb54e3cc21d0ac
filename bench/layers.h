// The traced run's layer replay. After the window the bench rebuilds the
// service's layers from their public parts on its own copy of the graph
// (partition, DTLP, CANDS), replays the logged traffic batches onto them
// epoch by epoch, and re-answers a sample of the logged requests at the
// epoch they were served, with a span around every layer call:
//
//   kspdg.query      Algorithm 3 from QueryContext::BuildOverlay
//                    (kspdg.overlay), YenEnumerator<SkeletonOverlay>::NextPath
//                    (kspdg.reference) and QueryContext::CandidateKsp
//                    (kspdg.join), whose boundary-pair fetches go through a
//                    timing PartialProvider (kspdg.partial)
//   kspdg.direct     the same query through RunKspDgQuery, untraced: the
//                    replay must match it exactly, and the two wall times
//                    give the tracing overhead
//   ksp.findksp, cands.query, mfp.candidates + mfp.filter
//   dtlp.update, cands.update, dtlp.bound_probe
//
// The DTLP bound-health probe compares every boundary pair's lower bound
// with the exact in-subgraph distance (LocalPartialProvider::
// PartialsInSubgraph at depth 1).
//
// A near-pair check answers the pairs of endpoints fewer than kMinQueryHops
// hops apart, which the workloads' query sets leave out (all such pairs
// whose source id is a multiple of eight), with RunKspDgQuery on a fresh
// index over the workload's initial graph, and counts the answers whose
// distances differ from FindKsp's.
//
// A closing what-if measures the paper's per-road traffic, which the timed
// workloads cannot run because KSP-DG answers some of its queries wrongly.
// On a fresh index over NY-S at 4096 vertices it applies two TrafficModel
// batches (α = 0.35, τ = 0.30), probes the bounds after each, then answers
// 32 random queries with RunKspDgQuery at the service's default options and
// with YenKspInGraph on the same weights: Yen's distances decide which
// answers are wrong, and its time is the reference the KSP-DG time is
// judged against.
#ifndef KSPDG_BENCH_LAYERS_H_
#define KSPDG_BENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"
#include "trace.h"
#include "workloads.h"

namespace kspdg::bench {

struct BoundHealth {
  uint64_t epoch = 0;
  size_t pairs = 0;
  size_t exact = 0;
  /// Pairs whose "lower" bound exceeds the exact distance: KSP-DG may stop
  /// before it has seen a shorter route through such a pair.
  size_t violations = 0;
  /// Quantiles of lower bound ÷ exact in-subgraph distance.
  double tightness_p10 = 0;
  double tightness_p50 = 0;

  double exact_share() const { return Share(exact); }
  double violation_share() const { return Share(violations); }

 private:
  double Share(size_t count) const {
    return pairs == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(pairs);
  }
};

/// The near-pair check (see file comment).
struct NearPairReport {
  size_t pairs = 0;
  size_t wrong = 0;
};

/// The per-road what-if (see file comment).
struct PaperTrafficReport {
  /// After 0, 1 and 2 batches.
  std::vector<BoundHealth> health;
  size_t queries = 0;
  /// Answers whose distances differ from Yen's.
  size_t wrong = 0;
  /// Queries that stopped at the iteration cap.
  size_t cap_hits = 0;
  std::vector<double> iterations;
  std::vector<double> ksp_ms;
  std::vector<double> yen_ms;
};

struct ReplayReport {
  size_t replayed = 0;
  size_t mismatches = 0;
  /// Wall time of the traced replays and of the untraced direct calls.
  double traced_ms = 0;
  double direct_ms = 0;
  std::vector<double> iterations;
  size_t cap_hits = 0;
  uint64_t partial_calls = 0;
  uint64_t partial_yen_runs = 0;
  uint64_t partial_cache_hits = 0;

  double partition_s = 0;
  double dtlp_build_s = 0;
  double cands_build_s = 0;
  std::vector<double> dtlp_update_ms;
  std::vector<double> subgraphs_touched;
  std::vector<double> findksp_ms;
  std::vector<double> cands_query_ms;
  std::vector<double> mfp_filter_ms;
  std::vector<double> mfp_kept;

  /// Bound health at the epoch the window's last answer was served.
  BoundHealth window_health;
  /// Every probe: before and after each batch when the run applied at most
  /// four, else at the window's last epoch only.
  std::vector<BoundHealth> bound_health;
  NearPairReport near_pairs;
  PaperTrafficReport paper_traffic;

  SpanBuffer spans;
};

/// Replays `log` layer by layer (see file comment). Fails only if the
/// bench's own copies cannot be built.
Status ReplayLayers(const RunLog& log, uint64_t seed, ReplayReport* report);

}  // namespace kspdg::bench

#endif  // KSPDG_BENCH_LAYERS_H_
