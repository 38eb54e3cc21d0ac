#include "dtlp/skeleton_graph.h"

#include <algorithm>
#include <cassert>

namespace kspdg {

void SkeletonGraph::SetVertices(const std::vector<VertexId>& boundary_global) {
  global_of_ = boundary_global;
  id_of_global_.clear();
  id_of_global_.reserve(global_of_.size());
  for (SkeletonId i = 0; i < global_of_.size(); ++i) {
    id_of_global_.emplace(global_of_[i], i);
  }
  adjacency_.assign(global_of_.size(), {});
  edges_.clear();
  edge_of_pair_.clear();
}

void SkeletonGraph::SetContribution(SubgraphId sg, VertexId a_global,
                                    VertexId b_global, Weight lbd) {
  SkeletonId a = IdOfGlobal(a_global);
  SkeletonId b = IdOfGlobal(b_global);
  assert(a != kInvalidVertex && b != kInvalidVertex && a != b);
  uint64_t key = SkeletonPairKey(a, b);
  auto [it, inserted] = edge_of_pair_.try_emplace(
      key, static_cast<EdgeId>(edges_.size()));
  if (inserted) {
    EdgeRec rec;
    rec.u = a;
    rec.v = b;
    edges_.push_back(std::move(rec));
    adjacency_[a].push_back({b, it->second});
    adjacency_[b].push_back({a, it->second});
  }
  EdgeRec& rec = edges_[it->second];
  // Locate or create this subgraph's contribution slot.
  Contribution* slot = nullptr;
  for (Contribution& c : rec.contributions) {
    if (c.subgraph == sg) {
      slot = &c;
      break;
    }
  }
  if (slot == nullptr) {
    rec.contributions.push_back({sg, kInfiniteWeight, kInfiniteWeight});
    slot = &rec.contributions.back();
  }
  bool is_forward = (rec.u == a);
  if (directed_) {
    (is_forward ? slot->fwd : slot->bwd) = lbd;
  } else {
    slot->fwd = lbd;
    slot->bwd = lbd;
  }
  RecomputeEdgeWeight(rec);
}

void SkeletonGraph::RecomputeEdgeWeight(EdgeRec& rec) {
  rec.weight_fwd = kInfiniteWeight;
  rec.weight_bwd = kInfiniteWeight;
  for (const Contribution& c : rec.contributions) {
    rec.weight_fwd = std::min(rec.weight_fwd, c.fwd);
    rec.weight_bwd = std::min(rec.weight_bwd, c.bwd);
  }
}

SkeletonId SkeletonOverlay::AddTempVertex(VertexId global) {
  assert(!base_->ContainsGlobal(global));
  auto it = temp_id_of_global_.find(global);
  if (it != temp_id_of_global_.end()) return it->second;
  SkeletonId id =
      static_cast<SkeletonId>(base_->NumVertices() + temp_global_.size());
  temp_global_.push_back(global);
  temp_id_of_global_.emplace(global, id);
  return id;
}

void SkeletonOverlay::AddTempEdge(SkeletonId a, SkeletonId b, Weight w_ab,
                                  Weight w_ba) {
  assert(a != b);
  // Merge parallel contributions (min per direction, matching the MBD
  // semantics of base skeleton edges). The overlay must stay a simple
  // graph: Yen's deviation bans are per-arc, and a duplicate parallel arc
  // would let the spur search rediscover a banned route and kill the
  // deviation branch.
  auto [it, inserted] =
      temp_edge_of_pair_.try_emplace(SkeletonPairKey(a, b),
                                     temp_edges_.size());
  if (!inserted) {
    TempEdge& te = temp_edges_[it->second];
    bool same_orientation = (te.a == a);
    te.w_ab = std::min(te.w_ab, same_orientation ? w_ab : w_ba);
    te.w_ba = std::min(te.w_ba, same_orientation ? w_ba : w_ab);
    return;
  }
  EdgeId id = static_cast<EdgeId>(base_->NumEdges() + temp_edges_.size());
  temp_edges_.push_back({a, b, w_ab, w_ba});
  extra_arcs_[a].push_back({b, id});
  extra_arcs_[b].push_back({a, id});
}

SkeletonId SkeletonOverlay::IdOfGlobal(VertexId global) const {
  SkeletonId base_id = base_->IdOfGlobal(global);
  if (base_id != kInvalidVertex) return base_id;
  auto it = temp_id_of_global_.find(global);
  return it == temp_id_of_global_.end() ? kInvalidVertex : it->second;
}

VertexId SkeletonOverlay::GlobalOf(SkeletonId id) const {
  if (id < base_->NumVertices()) return base_->GlobalOf(id);
  return temp_global_[id - base_->NumVertices()];
}

std::span<const Arc> SkeletonOverlay::Neighbors(SkeletonId v) const {
  auto extra = extra_arcs_.find(v);
  bool has_extra = extra != extra_arcs_.end();
  if (v >= base_->NumVertices()) {
    // Pure temp vertex: arcs live only in extra_arcs_.
    if (!has_extra) return {};
    return extra->second;
  }
  std::span<const Arc> base_arcs = base_->Neighbors(v);
  if (!has_extra) return base_arcs;
  // Mixed: materialise into the scratch buffer. Note this buffer is reused
  // across calls; callers must finish iterating one neighbor list before
  // requesting another (true for Dijkstra/Yen).
  neighbor_scratch_.assign(base_arcs.begin(), base_arcs.end());
  neighbor_scratch_.insert(neighbor_scratch_.end(), extra->second.begin(),
                           extra->second.end());
  return neighbor_scratch_;
}

}  // namespace kspdg
