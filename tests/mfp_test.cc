// Direct units for the diversity selection of the kDiverseKsp pipeline
// (src/mfp): exact edge Jaccard, greedy θ filtering in candidate order,
// determinism, and edge cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "ksp/path.h"
#include "mfp/diversity.h"

namespace kspdg {
namespace {

Path MakePath(std::vector<VertexId> vertices, Weight distance) {
  Path p;
  p.vertices = std::move(vertices);
  p.distance = distance;
  return p;
}

TEST(DiversityTest, RouteEdgeJaccardMatchesHandComputation) {
  Path a = MakePath({0, 1, 2, 3}, 3);      // edges 01 12 23
  Path b = MakePath({0, 1, 2, 4, 3}, 4);   // edges 01 12 24 43
  Path c = MakePath({0, 5, 6, 3}, 4);      // disjoint from a
  // |a ∩ b| = 2 (01, 12); |a ∪ b| = 5.
  EXPECT_DOUBLE_EQ(RouteEdgeJaccard(a, b, /*directed=*/false), 0.4);
  EXPECT_DOUBLE_EQ(RouteEdgeJaccard(a, c, /*directed=*/false), 0.0);
  EXPECT_DOUBLE_EQ(RouteEdgeJaccard(a, a, /*directed=*/false), 1.0);
  // Undirected edge identity is orientation-free: the reverse route is the
  // same edge set.
  Path reversed = MakePath({3, 2, 1, 0}, 3);
  EXPECT_DOUBLE_EQ(RouteEdgeJaccard(a, reversed, /*directed=*/false), 1.0);
  EXPECT_DOUBLE_EQ(RouteEdgeJaccard(a, reversed, /*directed=*/true), 0.0);
}

TEST(DiversityTest, GreedySelectionRespectsThetaAndOrder) {
  std::vector<Path> candidates = {
      MakePath({0, 1, 2, 3}, 3.0),     // kept (first)
      MakePath({0, 1, 2, 4, 3}, 3.5),  // sim 0.4 with #0
      MakePath({0, 5, 6, 3}, 4.0),     // disjoint
  };
  DiversityOptions options;
  options.theta = 0.3;
  std::vector<Path> kept;
  DiverseStats stats = SelectDiversePaths(candidates, /*k=*/2,
                                          /*directed=*/false, options, &kept);
  // θ = 0.3 rejects the 0.4-similar deviation and keeps the disjoint route.
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].vertices, candidates[0].vertices);
  EXPECT_EQ(kept[1].vertices, candidates[2].vertices);
  EXPECT_EQ(stats.candidates, 3u);
  EXPECT_EQ(stats.kept, 2u);
  EXPECT_EQ(stats.filtered, 1u);
  EXPECT_LE(stats.max_pairwise_similarity, options.theta);
  EXPECT_LE(stats.mean_pairwise_similarity, stats.max_pairwise_similarity);

  // θ = 1 disables filtering: the kept set is the k-prefix of the
  // candidate list.
  options.theta = 1.0;
  DiverseStats unfiltered = SelectDiversePaths(
      candidates, /*k=*/2, /*directed=*/false, options, &kept);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].vertices, candidates[0].vertices);
  EXPECT_EQ(kept[1].vertices, candidates[1].vertices);
  EXPECT_EQ(unfiltered.filtered, 1u);  // truncated, not similarity-filtered
}

TEST(DiversityTest, SelectionIsDeterministicAndPure) {
  // The pipeline is a pure function of (candidates, k, options): repeated
  // calls must agree bit for bit — the property that keeps sharded diverse
  // answers identical to unsharded ones.
  std::vector<Path> candidates;
  uint64_t state = 77;
  for (int c = 0; c < 12; ++c) {
    std::vector<VertexId> route{0};
    VertexId v = 1 + static_cast<VertexId>(SplitMix64(state) % 5);
    while (route.size() < 6 && v != 0) {
      route.push_back(v);
      v = static_cast<VertexId>(SplitMix64(state) % 12);
    }
    route.push_back(20);
    candidates.push_back(
        MakePath(route, 3.0 + 0.25 * static_cast<double>(c)));
  }
  DiversityOptions options;
  options.theta = 0.5;
  std::vector<Path> kept_a, kept_b;
  DiverseStats a = SelectDiversePaths(candidates, 4, false, options, &kept_a);
  DiverseStats b = SelectDiversePaths(candidates, 4, false, options, &kept_b);
  ASSERT_EQ(kept_a.size(), kept_b.size());
  for (size_t i = 0; i < kept_a.size(); ++i) {
    EXPECT_EQ(kept_a[i].vertices, kept_b[i].vertices);
    EXPECT_EQ(kept_a[i].distance, kept_b[i].distance);
  }
  EXPECT_EQ(a.kept, b.kept);
  EXPECT_EQ(a.exact_checks, b.exact_checks);
  // Every kept route is one of the candidates, in candidate order.
  size_t cursor = 0;
  for (const Path& p : kept_a) {
    while (cursor < candidates.size() &&
           candidates[cursor].vertices != p.vertices) {
      ++cursor;
    }
    ASSERT_LT(cursor, candidates.size()) << "kept route not a candidate";
    ++cursor;
  }
}

TEST(DiversityTest, EdgeCases) {
  DiversityOptions options;
  std::vector<Path> kept;
  DiverseStats empty =
      SelectDiversePaths({}, 3, /*directed=*/false, options, &kept);
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(empty.candidates, 0u);
  EXPECT_EQ(empty.kept, 0u);

  // Fewer candidates than k: keep them all (subject to θ).
  options.theta = 1.0;
  std::vector<Path> two = {MakePath({0, 1, 2}, 2.0),
                           MakePath({0, 3, 2}, 2.5)};
  DiverseStats stats =
      SelectDiversePaths(two, 5, /*directed=*/false, options, &kept);
  EXPECT_EQ(kept.size(), 2u);
  EXPECT_EQ(stats.filtered, 0u);
}

}  // namespace
}  // namespace kspdg
