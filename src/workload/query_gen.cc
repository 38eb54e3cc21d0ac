#include "workload/query_gen.h"

namespace kspdg {

std::vector<std::pair<VertexId, VertexId>> MakeRandomQueries(
    const Graph& g, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> queries;
  queries.reserve(count);
  const size_t n = g.NumVertices();
  while (queries.size() < count) {
    VertexId s = static_cast<VertexId>(rng.NextBounded(n));
    VertexId t = static_cast<VertexId>(rng.NextBounded(n));
    if (s == t || g.Degree(s) == 0 || g.Degree(t) == 0) continue;
    queries.emplace_back(s, t);
  }
  return queries;
}

}  // namespace kspdg
