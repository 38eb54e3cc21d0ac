#include "kspdg/query_context.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "ksp/yen.h"

namespace kspdg {

namespace {
uint64_t PairKey(VertexId a, VertexId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}
}  // namespace

QueryContext::QueryContext(const Dtlp& dtlp, PartialProvider* provider,
                           VertexId s, VertexId t,
                           const KspDgOptions& options)
    : dtlp_(dtlp),
      provider_(provider),
      options_(options),
      s_(s),
      t_(t),
      overlay_(dtlp.skeleton()) {}

void QueryContext::AttachEndpoint(VertexId v, bool is_source,
                                  SkeletonId* id_out) {
  const SkeletonGraph& skeleton = dtlp_.skeleton();
  if (skeleton.ContainsGlobal(v)) {
    *id_out = skeleton.IdOfGlobal(v);
    return;
  }
  SkeletonId temp = overlay_.AddTempVertex(v);
  const Partition& partition = dtlp_.partition();
  for (SubgraphId sgid : partition.subgraphs_of_vertex[v]) {
    const Subgraph& sg = partition.subgraphs[sgid];
    const SubgraphIndex& index = dtlp_.index(sgid);
    VertexId local = sg.LocalOf(v);
    for (const auto& [boundary_local, lbd] :
         index.LowerBoundsToBoundary(local, /*from_vertex=*/is_source)) {
      VertexId boundary_global = sg.GlobalOf(boundary_local);
      SkeletonId bid = overlay_.IdOfGlobal(boundary_global);
      if (bid == kInvalidVertex) continue;
      // Direction: source overlays use v -> boundary, target overlays
      // boundary -> v; the unused direction is impassable so reference paths
      // cannot route *through* an endpoint.
      if (is_source) {
        overlay_.AddTempEdge(temp, bid, lbd, kInfiniteWeight);
      } else {
        overlay_.AddTempEdge(bid, temp, lbd, kInfiniteWeight);
      }
    }
  }
  *id_out = temp;
}

bool QueryContext::BuildOverlay() {
  AttachEndpoint(s_, /*is_source=*/true, &sid_);
  AttachEndpoint(t_, /*is_source=*/false, &tid_);
  if (sid_ == kInvalidVertex || tid_ == kInvalidVertex) return false;
  // If s and t share a subgraph, the KSPs may never touch a boundary
  // vertex: connect them directly with the in-subgraph lower bound.
  const Partition& partition = dtlp_.partition();
  bool both_base = sid_ < dtlp_.skeleton().NumVertices() &&
                   tid_ < dtlp_.skeleton().NumVertices();
  bool base_edge_exists = false;
  if (both_base) {
    for (const Arc& a : dtlp_.skeleton().Neighbors(sid_)) {
      if (a.to == tid_) {
        base_edge_exists = true;
        break;
      }
    }
  }
  if (!base_edge_exists) {
    Weight best = kInfiniteWeight;
    for (SubgraphId sgid : partition.SubgraphsContainingBoth(s_, t_)) {
      const Subgraph& sg = partition.subgraphs[sgid];
      Weight lbd = dtlp_.index(sgid).LowerBoundBetween(sg.LocalOf(s_),
                                                       sg.LocalOf(t_));
      best = std::min(best, lbd);
    }
    if (best != kInfiniteWeight) {
      overlay_.AddTempEdge(sid_, tid_, best, kInfiniteWeight);
    }
  }
  return true;
}

const std::vector<Path>& QueryContext::Partials(VertexId x, VertexId y,
                                                size_t depth,
                                                bool* exhausted) {
  uint64_t key = PairKey(x, y);
  PartialCacheStore::Entry& entry = cache_.entries[key];
  // A cached entry is reusable if it was computed at least as deep, or if
  // the subgraphs were already exhausted (deeper fetches cannot add paths).
  if (entry.depth >= depth || (entry.depth > 0 && entry.exhausted)) {
    ++stats_.partial_cache_hits;
    *exhausted = entry.exhausted;
    return entry.paths;
  }
  PartialResult result = provider_->ComputePartials(x, y, depth);
  stats_.partial_ksp_computations += result.yen_runs;
  entry.paths = std::move(result.paths);
  entry.depth = depth;
  entry.exhausted = result.exhausted;
  *exhausted = entry.exhausted;
  return entry.paths;
}

std::vector<Path> QueryContext::Join(const std::vector<Path>& prefixes,
                                     const std::vector<Path>& segments,
                                     size_t limit, size_t* rejected) {
  std::vector<Path> out;
  std::unordered_set<VertexId> used;
  for (const Path& prefix : prefixes) {
    for (const Path& segment : segments) {
      if (prefix.vertices.back() != segment.vertices.front()) continue;
      // Simplicity check: the segment may not revisit prefix vertices.
      used.clear();
      used.insert(prefix.vertices.begin(), prefix.vertices.end());
      bool simple = true;
      for (size_t i = 1; i < segment.vertices.size(); ++i) {
        if (used.count(segment.vertices[i])) {
          simple = false;
          break;
        }
      }
      if (!simple) {
        ++*rejected;
        continue;
      }
      Path joined;
      joined.vertices = prefix.vertices;
      joined.vertices.insert(joined.vertices.end(),
                             segment.vertices.begin() + 1,
                             segment.vertices.end());
      joined.distance = prefix.distance + segment.distance;
      InsertTopK(out, std::move(joined), limit);
    }
  }
  return out;
}

std::vector<Path> QueryContext::CandidateKsp(
    const std::vector<SkeletonId>& reference) {
  const size_t k = options_.k;
  // Translate the reference path to global vertex ids.
  std::vector<VertexId> refs;
  refs.reserve(reference.size());
  for (SkeletonId id : reference) refs.push_back(overlay_.GlobalOf(id));

  size_t depth = k;
  for (uint32_t round = 0;; ++round) {
    std::vector<Path> c;
    size_t rejected = 0;
    bool any_exhaustible = false;
    for (size_t j = 0; j + 1 < refs.size(); ++j) {
      bool exhausted = false;
      const std::vector<Path>& y =
          Partials(refs[j], refs[j + 1], depth, &exhausted);
      if (y.empty()) return {};  // no path follows this reference sequence
      if (!exhausted) any_exhaustible = true;
      if (j == 0) {
        c = y;
        if (c.size() > depth) c.resize(depth);
      } else {
        // Keep up to `depth` prefixes alive: when joins reject non-simple
        // combinations, prefixes beyond the k-th may still complete.
        c = Join(c, y, depth, &rejected);
        if (c.empty()) break;
      }
    }
    bool short_due_to_rejection = c.size() < k && rejected > 0;
    if (!short_due_to_rejection || !any_exhaustible ||
        round >= kJoinRefetchRounds) {
      if (c.size() > k) c.resize(k);
      stats_.candidates_generated += c.size();
      return c;
    }
    // Joins rejected non-simple combinations and some partial list was
    // truncated at `depth`: deepen and retry so a feasible combination
    // hiding below the truncation horizon is not missed.
    depth *= 2;
  }
}

KspQueryResult RunKspDgQuery(const Dtlp& dtlp, PartialProvider* provider,
                             VertexId s, VertexId t,
                             const KspDgOptions& options) {
  KspQueryResult result;
  if (s == t) {
    result.paths.push_back(Path{{s}, 0});
    return result;
  }
  QueryContext ctx(dtlp, provider, s, t, options);
  if (!ctx.BuildOverlay()) return result;  // isolated endpoint: no paths

  YenEnumerator<SkeletonOverlay> reference_paths(ctx.overlay(),
                                                 ctx.overlay_s(),
                                                 ctx.overlay_t());
  std::optional<Path> ref = reference_paths.NextPath();
  std::vector<Path>& top = result.paths;
  while (ref.has_value() && ctx.stats().iterations < options.max_iterations) {
    ++ctx.stats().iterations;
    std::vector<Path> candidates = ctx.CandidateKsp(ref->vertices);
    for (Path& c : candidates) InsertTopK(top, std::move(c), options.k);
    std::optional<Path> next = reference_paths.NextPath();
    bool done = top.size() == options.k &&
                (!next.has_value() ||
                 top.back().distance <= next->distance + kWeightEpsilon);
    if (done || !next.has_value()) break;
    ref = std::move(next);
  }
  result.stats = ctx.stats();
  return result;
}

}  // namespace kspdg
