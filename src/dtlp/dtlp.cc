#include "dtlp/dtlp.h"

#include <algorithm>

#include "core/parallel_for.h"

namespace kspdg {

Result<std::unique_ptr<Dtlp>> Dtlp::Build(const Graph& g,
                                          const DtlpOptions& options) {
  Result<Partition> part = PartitionGraph(g, options.partition);
  if (!part.ok()) return part.status();

  std::unique_ptr<Dtlp> dtlp(new Dtlp(g, options));
  dtlp->partition_ =
      std::make_unique<Partition>(std::move(std::move(part).value()));
  Partition& partition = *dtlp->partition_;

  dtlp->indexes_.reserve(partition.subgraphs.size());
  for (const Subgraph& sg : partition.subgraphs) {
    dtlp->indexes_.emplace_back(&sg, options.index);
  }
  // Level 1: per-subgraph bounding paths; embarrassingly parallel across
  // subgraphs (this is the distributed portion of Algorithm 1).
  ParallelFor(dtlp->indexes_.size(), options.build_threads,
              [&](size_t i) { dtlp->indexes_[i].Build(); });

  // Level 2: skeleton graph over all boundary vertices.
  dtlp->skeleton_ = SkeletonGraph(g.directed());
  dtlp->skeleton_.SetVertices(partition.boundary_vertices);
  for (SubgraphId sg = 0; sg < partition.subgraphs.size(); ++sg) {
    dtlp->PushSubgraphBoundsToSkeleton(sg);
  }
  return dtlp;
}

void Dtlp::PushSubgraphBoundsToSkeleton(SubgraphId sgid) {
  const SubgraphIndex& index = indexes_[sgid];
  const Subgraph& sg = partition_->subgraphs[sgid];
  for (const BoundaryPairEntry& pair : index.pairs()) {
    VertexId a = sg.GlobalOf(pair.src);
    VertexId b = sg.GlobalOf(pair.dst);
    skeleton_.SetContribution(sgid, a, b, pair.lbd);
  }
}

void Dtlp::ApplyUpdatesToSubgraph(SubgraphId sgid,
                                  std::span<const WeightUpdate> updates) {
  Subgraph& sg = partition_->subgraphs[sgid];
  for (const WeightUpdate& upd : updates) {
    EdgeId local = sg.LocalEdgeOf(upd.edge);
    if (local == kInvalidEdge) continue;
    Weight old_fwd = sg.local().ForwardWeight(local);
    Weight old_bwd = sg.local().BackwardWeight(local);
    sg.ApplyUpdate(upd);
    indexes_[sgid].OnWeightChange(local, old_fwd, old_bwd);
  }
}

DtlpUpdateStats Dtlp::ApplyUpdates(std::span<const WeightUpdate> updates) {
  DtlpUpdateStats stats;
  // Every edge has at most one owning subgraph. The per-subgraph lists keep
  // the batch's relative order, so repeated updates to one edge resolve
  // identically however the subgraphs are scheduled.
  std::vector<std::vector<WeightUpdate>> per_subgraph(NumSubgraphs());
  std::vector<SubgraphId> touched;
  for (const WeightUpdate& upd : updates) {
    if (upd.edge >= partition_->subgraph_of_edge.size()) continue;
    SubgraphId sgid = partition_->subgraph_of_edge[upd.edge];
    if (sgid == kInvalidSubgraph) continue;
    if (per_subgraph[sgid].empty()) touched.push_back(sgid);
    per_subgraph[sgid].push_back(upd);
    ++stats.updates_applied;
  }
  std::sort(touched.begin(), touched.end());
  // Each owning server updates its subgraphs independently...
  std::vector<char> refreshed(touched.size(), 0);
  ParallelFor(touched.size(), options_.build_threads, [&](size_t i) {
    ApplyUpdatesToSubgraph(touched[i], per_subgraph[touched[i]]);
    refreshed[i] = indexes_[touched[i]].Refresh();
  });
  // ...and the master folds the changed bounds into Gλ in a fixed order.
  for (size_t i = 0; i < touched.size(); ++i) {
    if (refreshed[i] == 0) continue;
    PushSubgraphBoundsToSkeleton(touched[i]);
    stats.skeleton_pairs_refreshed += indexes_[touched[i]].pairs().size();
  }
  stats.subgraphs_touched = touched.size();
  return stats;
}

}  // namespace kspdg
