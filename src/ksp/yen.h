// Yen's k-shortest loopless paths algorithm [Yen 1971] with Lawler's
// deviation-index refinement, over any SearchGraph.
//
// Exposed as a lazy enumerator: KSP-DG pulls reference paths from the
// skeleton graph one at a time (§5.2), so paths are produced on demand and
// the candidate pool is kept across pulls.
#ifndef KSPDG_KSP_YEN_H_
#define KSPDG_KSP_YEN_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "core/types.h"
#include "ksp/dijkstra.h"
#include "ksp/path.h"
#include "ksp/search_graph.h"

namespace kspdg {

template <typename SearchGraph>
class YenEnumerator {
 public:
  /// `heuristic`, if provided, must be an admissible lower bound on the
  /// remaining distance to `t` under the graph's costs (see FindKSP).
  YenEnumerator(const SearchGraph& g, VertexId s, VertexId t,
                const std::vector<Weight>* heuristic = nullptr)
      : g_(&g),
        s_(s),
        t_(t),
        heuristic_(heuristic),
        dijkstra_(g),
        banned_vertices_(g.NumVertices(), 0),
        banned_edges_(g.NumEdges(), 0) {}

  /// Returns the next shortest loopless path from s to t, or std::nullopt
  /// when all simple paths have been enumerated.
  std::optional<Path> NextPath() {
    if (!started_) {
      started_ = true;
      std::optional<Path> first = dijkstra_.ShortestPath(s_, t_, {}, heuristic_);
      if (!first.has_value()) return std::nullopt;
      Accept(*first, /*deviation_index=*/0);
      return accepted_.back().path;
    }
    GenerateCandidatesFrom(accepted_.back());
    if (candidates_.empty()) return std::nullopt;
    auto it = candidates_.begin();
    Candidate best = *it;
    candidates_.erase(it);
    Accept(best.path, best.deviation_index);
    return accepted_.back().path;
  }

  /// Number of paths produced so far.
  size_t NumProduced() const { return accepted_.size(); }

 private:
  struct Accepted {
    Path path;
    size_t deviation_index;  // Lawler: spur only from here onwards
  };
  struct Candidate {
    Path path;
    size_t deviation_index;
    bool operator<(const Candidate& other) const {
      if (!WeightsEqual(path.distance, other.path.distance))
        return path.distance < other.path.distance;
      return path.vertices < other.path.vertices;
    }
  };

  void Accept(Path p, size_t deviation_index) {
    accepted_.push_back({std::move(p), deviation_index});
  }

  bool AlreadyKnownRoute(const std::vector<VertexId>& route) const {
    for (const Accepted& a : accepted_) {
      if (a.path.vertices == route) return true;
    }
    for (const Candidate& c : candidates_) {
      if (c.path.vertices == route) return true;
    }
    return false;
  }

  void GenerateCandidatesFrom(const Accepted& base) {
    const std::vector<VertexId>& verts = base.path.vertices;
    if (verts.size() < 2) return;
    for (size_t j = base.deviation_index; j + 1 < verts.size(); ++j) {
      // Each spur search stamps its bans with fresh epochs, so the buffers
      // never need clearing between spurs.
      uint32_t vertex_epoch = NextEpoch(banned_vertices_, vertex_epoch_);
      NextEpoch(banned_edges_, edge_epoch_);
      VertexId spur = verts[j];
      // Ban the root-path vertices (so the spur path cannot loop back).
      for (size_t i = 0; i < j; ++i) {
        banned_vertices_[verts[i]] = vertex_epoch;
      }
      // Ban the next edge of every known s-t path sharing this root.
      BanMatchingPrefixEdges(verts, j);
      SearchBans bans;
      bans.banned_vertices = &banned_vertices_;
      bans.vertex_epoch = vertex_epoch;
      bans.banned_edges = &banned_edges_;
      bans.edge_epoch = edge_epoch_;
      std::optional<Path> spur_path =
          dijkstra_.ShortestPath(spur, t_, bans, heuristic_);
      if (!spur_path.has_value()) continue;
      // Assemble root + spur.
      Candidate cand;
      cand.deviation_index = j;
      cand.path.vertices.assign(verts.begin(), verts.begin() + j);
      cand.path.vertices.insert(cand.path.vertices.end(),
                                spur_path->vertices.begin(),
                                spur_path->vertices.end());
      Weight root_dist = 0;
      for (size_t i = 0; i + 1 <= j && i + 1 < verts.size(); ++i) {
        root_dist += CostBetween(verts[i], verts[i + 1]);
      }
      cand.path.distance = root_dist + spur_path->distance;
      if (!AlreadyKnownRoute(cand.path.vertices)) {
        candidates_.insert(std::move(cand));
      }
    }
  }

  /// For every accepted path (and s-t candidates already known) whose first
  /// j vertices equal verts[0..j], ban the edge it takes out of verts[j].
  void BanMatchingPrefixEdges(const std::vector<VertexId>& verts, size_t j) {
    for (const Accepted& a : accepted_) {
      BanIfPrefixMatches(a.path.vertices, verts, j);
    }
  }

  void BanIfPrefixMatches(const std::vector<VertexId>& known,
                          const std::vector<VertexId>& verts, size_t j) {
    if (known.size() <= j + 1) return;
    for (size_t i = 0; i <= j; ++i) {
      if (known[i] != verts[i]) return;
    }
    // Ban every parallel arc known[j] -> known[j+1]: paths are vertex
    // sequences here, so a deviation must leave through a different
    // *vertex*; leaving through a parallel edge would reproduce the same
    // route and dead-end the branch.
    for (const Arc& a : g_->Neighbors(known[j])) {
      if (a.to == known[j + 1]) {
        banned_edges_[a.edge] = edge_epoch_;
      }
    }
  }

  /// Epoch bump with wrap protection: on the (astronomically rare) uint32
  /// wrap the stale stamps are cleared so they cannot collide with epoch 0.
  static uint32_t NextEpoch(std::vector<uint32_t>& stamps, uint32_t& epoch) {
    if (++epoch == 0) {
      std::fill(stamps.begin(), stamps.end(), 0u);
      epoch = 1;
    }
    return epoch;
  }

  /// Cheapest arc u -> v (multigraph-safe).
  Weight CostBetween(VertexId u, VertexId v) const {
    Weight best = kInfiniteWeight;
    for (const Arc& a : g_->Neighbors(u)) {
      if (a.to == v) best = std::min(best, g_->CostFrom(a.edge, u));
    }
    return best;
  }

  const SearchGraph* g_;
  VertexId s_, t_;
  const std::vector<Weight>* heuristic_;
  DijkstraSearch<SearchGraph> dijkstra_;
  /// Ban stamps: an entry equal to the current epoch is banned.
  std::vector<uint32_t> banned_vertices_;
  std::vector<uint32_t> banned_edges_;
  uint32_t vertex_epoch_ = 0;
  uint32_t edge_epoch_ = 0;
  bool started_ = false;
  std::vector<Accepted> accepted_;
  std::multiset<Candidate> candidates_;
};

/// Computes up to k shortest loopless paths from s to t in one call.
template <typename SearchGraph>
std::vector<Path> YenKsp(const SearchGraph& g, VertexId s, VertexId t,
                         size_t k,
                         const std::vector<Weight>* heuristic = nullptr) {
  YenEnumerator<SearchGraph> yen(g, s, t, heuristic);
  std::vector<Path> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    std::optional<Path> p = yen.NextPath();
    if (!p.has_value()) break;
    out.push_back(std::move(*p));
  }
  return out;
}

/// k shortest paths in a Graph under current dynamic weights.
std::vector<Path> YenKspInGraph(const Graph& g, VertexId s, VertexId t,
                                size_t k);

}  // namespace kspdg

#endif  // KSPDG_KSP_YEN_H_
