// Algorithm 2 against Algorithm 1: after any sequence of traffic batches,
// the incrementally maintained DTLP must equal a fresh build at the same
// weights: per-pair lower bounds and every skeleton edge cost (both up to
// floating-point drift from the incremental path-distance sums), and
// Theorem 1's exactness flags exactly.
#ifndef KSPDG_TESTS_DTLP_CHECK_H_
#define KSPDG_TESTS_DTLP_CHECK_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "dtlp/dtlp.h"
#include "graph/graph.h"

namespace kspdg {

/// Equal up to 1e-9 relative: a maintained bound is a sum of incremental
/// deltas, so its last bits may differ from the freshly summed one.
inline void ExpectSameBound(Weight got, Weight want,
                            const std::string& where) {
  if (std::isinf(want)) {
    EXPECT_TRUE(std::isinf(got)) << where;
  } else {
    EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want))) << where;
  }
}

/// Builds a fresh DTLP over `weights` with `incremental`'s options and
/// compares the two. `weights` must share the incremental DTLP's topology
/// and carry every update applied to it so far.
inline void ExpectMatchesFreshBuild(const Dtlp& incremental,
                                    const Graph& weights,
                                    const std::string& label) {
  Result<std::unique_ptr<Dtlp>> built =
      Dtlp::Build(weights, incremental.options());
  ASSERT_TRUE(built.ok()) << label << ": " << built.status().ToString();
  const Dtlp& fresh = *built.value();
  ASSERT_EQ(fresh.NumSubgraphs(), incremental.NumSubgraphs()) << label;
  for (SubgraphId sg = 0; sg < fresh.NumSubgraphs(); ++sg) {
    const auto& want = fresh.index(sg).pairs();
    const auto& got = incremental.index(sg).pairs();
    ASSERT_EQ(got.size(), want.size()) << label << " subgraph " << sg;
    for (size_t i = 0; i < want.size(); ++i) {
      const std::string where = label + " subgraph " + std::to_string(sg) +
                                " pair " + std::to_string(i);
      ASSERT_EQ(got[i].src, want[i].src) << where;
      ASSERT_EQ(got[i].dst, want[i].dst) << where;
      EXPECT_EQ(got[i].exact, want[i].exact) << where;
      ExpectSameBound(got[i].lbd, want[i].lbd, where);
    }
  }
  const SkeletonGraph& want = fresh.skeleton();
  const SkeletonGraph& got = incremental.skeleton();
  ASSERT_EQ(got.NumVertices(), want.NumVertices()) << label;
  ASSERT_EQ(got.NumEdges(), want.NumEdges()) << label;
  for (SkeletonId v = 0; v < want.NumVertices(); ++v) {
    ASSERT_EQ(got.GlobalOf(v), want.GlobalOf(v)) << label;
    const auto want_arcs = want.Neighbors(v);
    const auto got_arcs = got.Neighbors(v);
    ASSERT_EQ(got_arcs.size(), want_arcs.size()) << label << " vertex " << v;
    for (size_t i = 0; i < want_arcs.size(); ++i) {
      ASSERT_EQ(got_arcs[i].to, want_arcs[i].to) << label << " vertex " << v;
      ExpectSameBound(got.CostFrom(got_arcs[i].edge, v),
                      want.CostFrom(want_arcs[i].edge, v),
                      label + " skeleton arc " + std::to_string(v) + " -> " +
                          std::to_string(want_arcs[i].to));
    }
  }
}

}  // namespace kspdg

#endif  // KSPDG_TESTS_DTLP_CHECK_H_
