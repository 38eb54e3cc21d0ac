// Pool of virtual-fragment unit weights of one subgraph (§3.4).
//
// Every edge direction contributes `vfrags` fragments of unit weight
// `current_weight / vfrags`. The bound distance of a bounding path with φ
// vfrags is the sum of the φ smallest unit weights in its subgraph; this
// class answers that query in O(log E) after an O(E log E) rebuild, which
// the owning SubgraphIndex performs on the write side (Build, and Refresh
// after weight changes), so concurrent readers share a pure const lookup.
#ifndef KSPDG_DTLP_UNIT_WEIGHT_POOL_H_
#define KSPDG_DTLP_UNIT_WEIGHT_POOL_H_

#include <vector>

#include "core/types.h"
#include "graph/graph.h"

namespace kspdg {

class UnitWeightPool {
 public:
  /// Binds the pool to a subgraph-local graph. In directed mode both
  /// directions of every edge contribute fragments; in undirected mode each
  /// edge contributes once. The pool is empty until the first Rebuild.
  explicit UnitWeightPool(const Graph* local) : local_(local) {}

  /// Re-reads every unit weight from the local graph. Must not run
  /// concurrently with SumOfSmallest.
  void Rebuild();

  /// Sum of the m smallest unit weights as of the last Rebuild. If m
  /// exceeds the total number of fragments, the total weight is returned.
  Weight SumOfSmallest(VfragCount m) const;

 private:
  struct Entry {
    Weight unit;            // weight per fragment
    VfragCount count;       // number of fragments at this unit weight
    VfragCount cum_count;   // fragments in this and all cheaper entries
    Weight cum_weight;      // total weight of this and all cheaper entries
  };

  const Graph* local_;
  std::vector<Entry> entries_;  // sorted by unit ascending
};

}  // namespace kspdg

#endif  // KSPDG_DTLP_UNIT_WEIGHT_POOL_H_
