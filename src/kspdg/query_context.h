// Per-query working state of KSP-DG: the skeleton overlay for the endpoints
// (§5.3), the partial-KSP cache (§5.2 optimisation), and Algorithm 4.
// Shared by every deployment of the serving core.
#ifndef KSPDG_KSPDG_QUERY_CONTEXT_H_
#define KSPDG_KSPDG_QUERY_CONTEXT_H_

#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "dtlp/dtlp.h"
#include "dtlp/skeleton_graph.h"
#include "ksp/path.h"
#include "kspdg/ksp_dg_options.h"
#include "kspdg/partial_provider.h"

namespace kspdg {

/// One query's cache of partial k-shortest paths between boundary pairs
/// (§5.2), keyed by (x, y). Reuse across queries lives in the partial
/// provider (see RoutingService), which knows when a shard's weights move.
struct PartialCacheStore {
  struct Entry {
    std::vector<Path> paths;
    size_t depth = 0;
    bool exhausted = false;
  };
  std::unordered_map<uint64_t, Entry> entries;
};

class QueryContext {
 public:
  QueryContext(const Dtlp& dtlp, PartialProvider* provider, VertexId s,
               VertexId t, const KspDgOptions& options);

  /// Builds the endpoint overlay. Returns false if an endpoint cannot be
  /// attached (isolated vertex with no incident edges).
  bool BuildOverlay();

  SkeletonId overlay_s() const { return sid_; }
  SkeletonId overlay_t() const { return tid_; }
  const SkeletonOverlay& overlay() const { return overlay_; }

  /// Algorithm 4: candidate k shortest paths following the boundary-vertex
  /// sequence of `reference` (overlay ids).
  std::vector<Path> CandidateKsp(const std::vector<SkeletonId>& reference);

  KspDgQueryStats& stats() { return stats_; }

 private:
  const std::vector<Path>& Partials(VertexId x, VertexId y, size_t depth,
                                    bool* exhausted);

  static std::vector<Path> Join(const std::vector<Path>& prefixes,
                                const std::vector<Path>& segments,
                                size_t limit, size_t* rejected);

  void AttachEndpoint(VertexId v, bool is_source, SkeletonId* id_out);

  const Dtlp& dtlp_;
  PartialProvider* provider_;
  const KspDgOptions options_;
  VertexId s_, t_;
  SkeletonOverlay overlay_;
  SkeletonId sid_ = kInvalidVertex;
  SkeletonId tid_ = kInvalidVertex;

  PartialCacheStore cache_;
  KspDgQueryStats stats_;
};

/// The shared Algorithm 3 driver: iterates reference paths over the overlay
/// until the top-k list provably contains the KSPs.
KspQueryResult RunKspDgQuery(const Dtlp& dtlp, PartialProvider* provider,
                             VertexId s, VertexId t,
                             const KspDgOptions& options);

}  // namespace kspdg

#endif  // KSPDG_KSPDG_QUERY_CONTEXT_H_
