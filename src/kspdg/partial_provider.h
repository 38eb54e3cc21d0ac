// Abstraction over *where* partial k-shortest paths are computed.
//
// The refine step of KSP-DG (Algorithm 4) asks, for an adjacent boundary
// pair (x, y) of the reference path, for the k shortest paths between x and
// y inside every subgraph containing both. LocalPartialProvider runs it
// inline; the serving core's provider hands it to the shard owning each
// subgraph, in process or over RPC to a shard_worker. QueryContext is
// written against this interface so every deployment shares the exact same
// algorithm.
#ifndef KSPDG_KSPDG_PARTIAL_PROVIDER_H_
#define KSPDG_KSPDG_PARTIAL_PROVIDER_H_

#include <vector>

#include "core/types.h"
#include "dtlp/dtlp.h"
#include "ksp/path.h"

namespace kspdg {

struct PartialResult {
  /// Merged k-best partial paths in *global* vertex ids.
  std::vector<Path> paths;
  /// True if every contributing subgraph returned fewer than `depth` paths,
  /// i.e. deeper requests cannot produce more.
  bool exhausted = false;
  /// Number of subgraph Yen invocations performed.
  size_t yen_runs = 0;
};

/// One subgraph's partial-path list, tagged with its subgraph id so merges
/// can be ordered deterministically.
struct SubgraphPartials {
  SubgraphId sgid = kInvalidSubgraph;
  std::vector<Path> paths;
};

/// Merges per-subgraph partial lists into one top-`depth` PartialResult.
/// The merge runs in ascending subgraph order and that order is part of the
/// contract: InsertTopK keeps the FIRST copy of a duplicate route, which is
/// observable when parallel edges split a route across subgraphs. Every
/// deployment (inline, sharded, RPC) must merge through this one
/// function so their answers cannot drift. Sets `exhausted` iff every list
/// came back shorter than `depth`, and `yen_runs` to the list count.
PartialResult MergeSubgraphPartials(std::vector<SubgraphPartials> lists,
                                    size_t depth);

class PartialProvider {
 public:
  virtual ~PartialProvider() = default;

  /// Up to `depth` shortest paths from x to y confined to single subgraphs
  /// containing both endpoints.
  virtual PartialResult ComputePartials(VertexId x, VertexId y,
                                        size_t depth) = 0;
};

/// Computes partials inline on the calling thread (single-node deployment).
class LocalPartialProvider : public PartialProvider {
 public:
  explicit LocalPartialProvider(const Dtlp& dtlp) : dtlp_(&dtlp) {}

  PartialResult ComputePartials(VertexId x, VertexId y,
                                size_t depth) override;

  /// Shared by every shard owner (in process and shard_worker): k-best paths
  /// between two global vertices within one specific subgraph, translated
  /// to global ids.
  static std::vector<Path> PartialsInSubgraph(const Subgraph& sg, VertexId x,
                                              VertexId y, size_t depth);

 private:
  const Dtlp* dtlp_;
};

}  // namespace kspdg

#endif  // KSPDG_KSPDG_PARTIAL_PROVIDER_H_
