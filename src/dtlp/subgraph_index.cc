#include "dtlp/subgraph_index.h"

#include <algorithm>
#include <cassert>

#include "ksp/search_graph.h"
#include "ksp/yen.h"

namespace kspdg {

namespace {

/// Safety cap on Yen pulls while collecting ξ distinct vfrag counts: equal-
/// vfrag paths count as one, and ties can be numerous on uniform graphs.
uint32_t MaxYenPulls(uint32_t xi) { return 8 * xi + 16; }

/// Materialises edge ids / traversal directions / vfrag count / current
/// distance for a route found in the local graph.
void FillPathDetails(const Graph& local, const std::vector<VertexId>& verts,
                     BoundingPath* out) {
  out->verts = verts;
  out->edges.clear();
  out->uses_forward.clear();
  out->vfrags = 0;
  out->distance = 0;
  for (size_t i = 1; i < verts.size(); ++i) {
    EdgeId e = local.FindEdge(verts[i - 1], verts[i]);
    assert(e != kInvalidEdge);
    out->edges.push_back(e);
    out->uses_forward.push_back(local.EdgeU(e) == verts[i - 1] ? 1 : 0);
    out->vfrags += local.VfragsFrom(e, verts[i - 1]);
    out->distance += local.WeightFrom(e, verts[i - 1]);
  }
}

}  // namespace

SubgraphIndex::SubgraphIndex(const Subgraph* subgraph,
                             const DtlpIndexOptions& options)
    : subgraph_(subgraph), options_(options), pool_(&subgraph->local()) {}

std::vector<uint32_t> SubgraphIndex::CollectBoundingPaths(
    VertexId src, VertexId dst, uint32_t pair_index) {
  const Graph& local = subgraph_->local();
  GraphCostView vfrag_view(local, CostKind::kVfrags);
  YenEnumerator<GraphCostView> yen(vfrag_view, src, dst);
  std::vector<uint32_t> out;
  VfragCount last_phi = 0;
  uint32_t pulls = 0;
  const uint32_t max_pulls = MaxYenPulls(options_.xi);
  while (out.size() < options_.xi && pulls++ < max_pulls) {
    std::optional<Path> p = yen.NextPath();
    if (!p.has_value()) break;
    VfragCount phi = static_cast<VfragCount>(p->distance + 0.5);
    // Paths with an already-seen vfrag count "are counted as only one path"
    // (§3.4): keep the first representative of each distinct φ.
    if (!out.empty() && phi == last_phi) continue;
    last_phi = phi;
    BoundingPath bp;
    FillPathDetails(local, p->vertices, &bp);
    bp.pair_index = pair_index;
    assert(bp.vfrags == phi);
    out.push_back(static_cast<uint32_t>(paths_.size()));
    paths_.push_back(std::move(bp));
  }
  return out;
}

void SubgraphIndex::Build() {
  const std::vector<VertexId>& boundary = subgraph_->boundary_local();
  const bool directed = subgraph_->local().directed();
  paths_.clear();
  pairs_.clear();
  for (size_t i = 0; i < boundary.size(); ++i) {
    for (size_t j = directed ? 0 : i + 1; j < boundary.size(); ++j) {
      if (i == j) continue;
      BoundaryPairEntry pair;
      pair.src = boundary[i];
      pair.dst = boundary[j];
      uint32_t pair_index = static_cast<uint32_t>(pairs_.size());
      pair.paths = CollectBoundingPaths(pair.src, pair.dst, pair_index);
      pairs_.push_back(std::move(pair));
    }
  }
  // EP-Index: edge -> bounding paths crossing it.
  ep_index_.assign(subgraph_->local().NumEdges(), {});
  for (uint32_t pid = 0; pid < paths_.size(); ++pid) {
    for (EdgeId e : paths_[pid].edges) ep_index_[e].push_back(pid);
  }
  pool_.Rebuild();
  for (BoundaryPairEntry& pair : pairs_) RecomputePairBound(pair);
  dirty_ = false;
}

void SubgraphIndex::OnWeightChange(EdgeId local_edge, Weight old_fwd,
                                   Weight old_bwd) {
  const Graph& local = subgraph_->local();
  Weight delta_fwd = local.ForwardWeight(local_edge) - old_fwd;
  Weight delta_bwd = local.BackwardWeight(local_edge) - old_bwd;
  if (delta_fwd != 0 || delta_bwd != 0) {
    for (uint32_t pid : ep_index_[local_edge]) {
      BoundingPath& p = paths_[pid];
      if (!local.directed() || delta_fwd == delta_bwd) {
        p.distance += delta_fwd;
      } else {
        // Directed with asymmetric change: find the traversal direction.
        for (size_t i = 0; i < p.edges.size(); ++i) {
          if (p.edges[i] == local_edge) {
            p.distance += p.uses_forward[i] ? delta_fwd : delta_bwd;
            break;
          }
        }
      }
    }
    dirty_ = true;
  }
}

bool SubgraphIndex::Refresh() {
  if (!dirty_) return false;
  // Always rebuilt, even with no pair to recompute: LowerBoundBetween reads
  // the pool for subgraphs whose endpoints are not boundary vertices.
  pool_.Rebuild();
  bool changed = false;
  for (BoundaryPairEntry& pair : pairs_) {
    Weight old = pair.lbd;
    RecomputePairBound(pair);
    if (!WeightsEqual(old, pair.lbd)) changed = true;
  }
  dirty_ = false;
  return changed;
}

void SubgraphIndex::RecomputePairBound(BoundaryPairEntry& pair) {
  if (pair.paths.empty()) {
    pair.lbd = kInfiniteWeight;
    pair.exact = false;
    return;
  }
  // Paths are sorted by φ ascending; SumOfSmallest is monotone in φ, so the
  // maximal bound distance belongs to the last path.
  Weight min_actual = kInfiniteWeight;
  for (uint32_t pid : pair.paths) {
    min_actual = std::min(min_actual, paths_[pid].distance);
  }
  VfragCount max_phi = paths_[pair.paths.back()].vfrags;
  Weight bd_max = pool_.SumOfSmallest(max_phi);
  // Theorem 1 collapses to: LBD = min(D(P'_u), BD(P'_r)). When the actual
  // minimum does not exceed the maximal bound distance, it is provably the
  // exact shortest distance within the subgraph (case 1); otherwise the
  // maximal bound distance is the lower bound (case 2). Taking the min is
  // also robust to floating-point noise: it can never overestimate.
  if (min_actual <= bd_max + kWeightEpsilon) {
    pair.lbd = min_actual;
    pair.exact = true;
  } else {
    pair.lbd = bd_max;
    pair.exact = false;
  }
}

std::vector<std::pair<VertexId, Weight>> SubgraphIndex::LowerBoundsToBoundary(
    VertexId local_vertex, bool from_vertex) const {
  std::vector<std::pair<VertexId, Weight>> out;
  for (VertexId b : subgraph_->boundary_local()) {
    if (b == local_vertex) continue;
    Weight lbd = from_vertex ? LowerBoundBetween(local_vertex, b)
                             : LowerBoundBetween(b, local_vertex);
    if (lbd != kInfiniteWeight) out.emplace_back(b, lbd);
  }
  return out;
}

Weight SubgraphIndex::LowerBoundBetween(VertexId src_local,
                                        VertexId dst_local) const {
  if (src_local == dst_local) return 0;
  const Graph& local = subgraph_->local();
  GraphCostView vfrag_view(local, CostKind::kVfrags);
  YenEnumerator<GraphCostView> yen(vfrag_view, src_local, dst_local);
  Weight min_actual = kInfiniteWeight;
  VfragCount max_phi = 0;
  VfragCount last_phi = 0;
  uint32_t distinct = 0;
  uint32_t pulls = 0;
  const uint32_t max_pulls = MaxYenPulls(options_.xi);
  while (distinct < options_.xi && pulls++ < max_pulls) {
    std::optional<Path> p = yen.NextPath();
    if (!p.has_value()) break;
    VfragCount phi = static_cast<VfragCount>(p->distance + 0.5);
    if (distinct > 0 && phi == last_phi) continue;
    last_phi = phi;
    ++distinct;
    max_phi = phi;  // φ grows monotonically across distinct values
    // Current actual distance of this route.
    Weight d = 0;
    for (size_t i = 1; i < p->vertices.size(); ++i) {
      EdgeId e = local.FindEdge(p->vertices[i - 1], p->vertices[i]);
      d += local.WeightFrom(e, p->vertices[i - 1]);
    }
    min_actual = std::min(min_actual, d);
  }
  if (distinct == 0) return kInfiniteWeight;
  Weight bd_max = pool_.SumOfSmallest(max_phi);
  return std::min(min_actual, bd_max);
}

}  // namespace kspdg
