// Random KSP query generation for experiments (§6.4: batches of Nq queries
// fed into the system simultaneously).
#ifndef KSPDG_WORKLOAD_QUERY_GEN_H_
#define KSPDG_WORKLOAD_QUERY_GEN_H_

#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/types.h"
#include "graph/graph.h"

namespace kspdg {

/// Generates `count` (s, t) pairs with s != t, uniform over vertices.
std::vector<std::pair<VertexId, VertexId>> MakeRandomQueries(
    const Graph& g, size_t count, uint64_t seed);

}  // namespace kspdg

#endif  // KSPDG_WORKLOAD_QUERY_GEN_H_
