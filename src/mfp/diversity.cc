#include "mfp/diversity.h"

#include <algorithm>
#include <utility>

namespace kspdg {

namespace {

/// Edge identity for similarity purposes: the vertex pair, ordered in
/// directed graphs and normalised in undirected ones. Parallel edges between
/// one vertex pair collapse to one element — a route is "the same" along
/// them for diversity purposes, and Path stores vertices only.
uint64_t EdgeKey(VertexId a, VertexId b, bool directed) {
  if (!directed && a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// The sorted edge-key set of one route.
std::vector<uint64_t> EdgeKeysOf(const Path& p, bool directed) {
  std::vector<uint64_t> keys;
  if (p.vertices.size() < 2) return keys;
  keys.reserve(p.vertices.size() - 1);
  for (size_t i = 0; i + 1 < p.vertices.size(); ++i) {
    keys.push_back(EdgeKey(p.vertices[i], p.vertices[i + 1], directed));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

double SortedJaccard(const std::vector<uint64_t>& a,
                     const std::vector<uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

double RouteEdgeJaccard(const Path& a, const Path& b, bool directed) {
  return SortedJaccard(EdgeKeysOf(a, directed), EdgeKeysOf(b, directed));
}

DiverseStats SelectDiversePaths(const std::vector<Path>& candidates,
                                uint32_t k, bool directed,
                                const DiversityOptions& options,
                                std::vector<Path>* kept) {
  DiverseStats stats;
  stats.candidates = static_cast<uint32_t>(candidates.size());
  kept->clear();

  // Greedy selection in KSP order: candidates arrive ascending by distance
  // (deterministically tie-broken by the solvers), so the kept set is the
  // lexicographically-first pairwise-dissimilar subset — identical on every
  // deployment that produced the identical candidate list. Exact Jaccard
  // decides every accept/reject.
  std::vector<std::vector<uint64_t>> kept_keys;
  for (size_t c = 0; c < candidates.size() && kept->size() < k; ++c) {
    std::vector<uint64_t> keys = EdgeKeysOf(candidates[c], directed);
    bool accept = true;
    for (const std::vector<uint64_t>& other : kept_keys) {
      ++stats.exact_checks;
      if (SortedJaccard(keys, other) > options.theta) {
        accept = false;
        break;
      }
    }
    if (!accept) continue;
    kept->push_back(candidates[c]);
    kept_keys.push_back(std::move(keys));
  }
  stats.kept = static_cast<uint32_t>(kept->size());
  stats.filtered = stats.candidates - stats.kept;

  // Exact pairwise similarity of the kept set (the reported guarantee).
  size_t pairs = 0;
  double sum = 0;
  for (size_t i = 0; i < kept_keys.size(); ++i) {
    for (size_t j = i + 1; j < kept_keys.size(); ++j) {
      double s = SortedJaccard(kept_keys[i], kept_keys[j]);
      sum += s;
      stats.max_pairwise_similarity =
          std::max(stats.max_pairwise_similarity, s);
      ++pairs;
    }
  }
  if (pairs > 0) sum /= static_cast<double>(pairs);
  stats.mean_pairwise_similarity = sum;
  return stats;
}

}  // namespace kspdg
