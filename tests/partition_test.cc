// Unit + property tests for the BFS partitioner (§3.3): coverage of vertices
// and edges, the z cap, edge-disjointness, boundary detection; and for the
// DTLP built over it: Algorithm 2 (incremental maintenance) must agree with
// Algorithm 1 (a fresh build) at the same weights.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dtlp/dtlp.h"
#include "dtlp_check.h"
#include "graph/generators.h"
#include "graph/traffic_model.h"
#include "partition/partitioner.h"

namespace kspdg {
namespace {

Partition MustPartition(const Graph& g, uint32_t z) {
  PartitionOptions opt;
  opt.max_vertices = z;
  Result<Partition> part = PartitionGraph(g, opt);
  EXPECT_TRUE(part.ok()) << part.status().ToString();
  return std::move(part).value();
}

/// Checks the three §3.3 invariants plus structural consistency.
void CheckPartitionInvariants(const Graph& g, const Partition& part,
                              uint32_t z) {
  // (1) V1 u ... u Vn = V.
  std::vector<int> vertex_cover(g.NumVertices(), 0);
  for (const Subgraph& sg : part.subgraphs) {
    EXPECT_LE(sg.NumVertices(), z);
    for (VertexId local = 0; local < sg.NumVertices(); ++local) {
      vertex_cover[sg.GlobalOf(local)]++;
      EXPECT_EQ(sg.LocalOf(sg.GlobalOf(local)), local);
    }
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_GE(vertex_cover[v], 1) << "vertex " << v << " uncovered";
  }
  // (2) E1 u ... u En = E, and subgraphs share no edges.
  std::vector<int> edge_cover(g.NumEdges(), 0);
  for (const Subgraph& sg : part.subgraphs) {
    for (EdgeId le = 0; le < sg.NumEdges(); ++le) {
      EdgeId ge = sg.GlobalEdgeOf(le);
      edge_cover[ge]++;
      // Weights and vfrags must mirror the global edge.
      EXPECT_EQ(sg.local().ForwardVfrags(le), g.ForwardVfrags(ge));
      EXPECT_DOUBLE_EQ(sg.local().ForwardWeight(le), g.ForwardWeight(ge));
      // Orientation preserved.
      EXPECT_EQ(sg.GlobalOf(sg.local().EdgeU(le)), g.EdgeU(ge));
      EXPECT_EQ(sg.GlobalOf(sg.local().EdgeV(le)), g.EdgeV(ge));
    }
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(edge_cover[e], 1) << "edge " << e << " covered "
                                << edge_cover[e] << " times";
    EXPECT_NE(part.subgraph_of_edge[e], kInvalidSubgraph);
  }
  // Boundary = membership in >= 2 subgraphs.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(part.is_boundary[v] != 0, part.subgraphs_of_vertex[v].size() >= 2);
  }
  // Per-subgraph boundary lists agree with the global flags.
  for (const Subgraph& sg : part.subgraphs) {
    std::set<VertexId> listed(sg.boundary_local().begin(),
                              sg.boundary_local().end());
    for (VertexId local = 0; local < sg.NumVertices(); ++local) {
      EXPECT_EQ(listed.count(local) > 0,
                part.is_boundary[sg.GlobalOf(local)] != 0);
    }
  }
}

TEST(PartitionerTest, RejectsTinyZ) {
  Graph g = MakeRandomConnected(10, 5, 1, 5, 1);
  PartitionOptions opt;
  opt.max_vertices = 1;
  EXPECT_FALSE(PartitionGraph(g, opt).ok());
}

TEST(PartitionerTest, SingleSubgraphWhenZLarge) {
  Graph g = MakeRandomConnected(20, 10, 1, 5, 2);
  Partition part = MustPartition(g, 100);
  EXPECT_EQ(part.subgraphs.size(), 1u);
  EXPECT_TRUE(part.boundary_vertices.empty());
  CheckPartitionInvariants(g, part, 100);
}

TEST(PartitionerTest, InvariantsOnRoadNetwork) {
  RoadNetworkOptions opt;
  opt.rows = 20;
  opt.cols = 20;
  opt.seed = 3;
  Graph g = MakeRoadNetwork(opt);
  for (uint32_t z : {8u, 20u, 50u, 200u}) {
    Partition part = MustPartition(g, z);
    CheckPartitionInvariants(g, part, z);
    if (z < g.NumVertices()) {
      EXPECT_GT(part.subgraphs.size(), 1u);
      EXPECT_FALSE(part.boundary_vertices.empty());
    }
  }
}

TEST(PartitionerTest, InvariantsOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = MakeRandomConnected(120, 90, 1, 12, seed);
    Partition part = MustPartition(g, 16);
    CheckPartitionInvariants(g, part, 16);
  }
}

TEST(PartitionerTest, HandlesIsolatedVertices) {
  Graph g(5);
  g.AddEdge(0, 1, 2);  // vertices 2, 3, 4 isolated
  Partition part = MustPartition(g, 4);
  CheckPartitionInvariants(g, part, 4);
}

TEST(PartitionerTest, HandlesStarGraphSmallZ) {
  // A star forces repeated growth from the hub.
  Graph g(10);
  for (VertexId v = 1; v < 10; ++v) g.AddEdge(0, v, 1);
  Partition part = MustPartition(g, 3);
  CheckPartitionInvariants(g, part, 3);
  // The hub belongs to several subgraphs, hence is a boundary vertex.
  EXPECT_GE(part.subgraphs_of_vertex[0].size(), 2u);
  EXPECT_TRUE(part.is_boundary[0]);
}

TEST(PartitionerTest, DirectedGraphPreservesPerDirectionWeights) {
  RoadNetworkOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.directed = true;
  opt.asymmetric_prob = 1.0;
  opt.seed = 9;
  Graph g = MakeRoadNetwork(opt);
  Partition part = MustPartition(g, 12);
  for (const Subgraph& sg : part.subgraphs) {
    EXPECT_TRUE(sg.local().directed());
    for (EdgeId le = 0; le < sg.NumEdges(); ++le) {
      EdgeId ge = sg.GlobalEdgeOf(le);
      EXPECT_EQ(sg.local().BackwardVfrags(le), g.BackwardVfrags(ge));
      EXPECT_DOUBLE_EQ(sg.local().BackwardWeight(le), g.BackwardWeight(ge));
    }
  }
}

TEST(PartitionerTest, SubgraphsContainingBoth) {
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 11;
  Graph g = MakeRoadNetwork(opt);
  Partition part = MustPartition(g, 12);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    // The endpoints of any edge co-occur at least in the owning subgraph.
    std::vector<SubgraphId> both =
        part.SubgraphsContainingBoth(g.EdgeU(e), g.EdgeV(e));
    EXPECT_FALSE(both.empty());
    bool owner_found = false;
    for (SubgraphId s : both) owner_found |= (s == part.subgraph_of_edge[e]);
    EXPECT_TRUE(owner_found);
  }
}

TEST(PartitionerTest, ApplyUpdatePropagatesToSubgraph) {
  Graph g = MakeRandomConnected(40, 30, 2, 9, 12);
  Partition part = MustPartition(g, 10);
  WeightUpdate upd{0, 3.5, 3.5};
  SubgraphId owner = part.subgraph_of_edge[0];
  EXPECT_TRUE(part.subgraphs[owner].ApplyUpdate(upd));
  EdgeId local = part.subgraphs[owner].LocalEdgeOf(0);
  EXPECT_DOUBLE_EQ(part.subgraphs[owner].local().ForwardWeight(local), 3.5);
  // Subgraphs not containing the edge refuse it.
  for (const Subgraph& sg : part.subgraphs) {
    if (sg.id() != owner) {
      Subgraph& mutable_sg = const_cast<Subgraph&>(sg);
      EXPECT_FALSE(mutable_sg.ApplyUpdate(upd));
    }
  }
}

TEST(PartitionerTest, BoundaryCountStatistic) {
  RoadNetworkOptions opt;
  opt.rows = 16;
  opt.cols = 16;
  opt.seed = 13;
  Graph g = MakeRoadNetwork(opt);
  Partition part = MustPartition(g, 20);
  size_t above0 = part.CountSubgraphsWithBoundaryAbove(0);
  size_t above5 = part.CountSubgraphsWithBoundaryAbove(5);
  EXPECT_GE(above0, above5);
  EXPECT_GT(above0, 0u);
}

/// Three traffic batches through Dtlp::ApplyUpdates, each followed by a
/// comparison with a fresh build at the batch's weights. Every batch also
/// repeats its first edge with a different weight, so batch order within a
/// subgraph decides the result.
void CheckIncrementalMatchesFreshBuild(bool directed, unsigned threads) {
  RoadNetworkOptions road;
  road.rows = 16;
  road.cols = 16;
  road.directed = directed;
  road.asymmetric_prob = directed ? 0.5 : 0.0;
  road.seed = 21;
  const Graph base = MakeRoadNetwork(road);
  DtlpOptions options;
  options.partition.max_vertices = 20;
  options.build_threads = threads;
  Result<std::unique_ptr<Dtlp>> built = Dtlp::Build(base, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Dtlp& dtlp = *built.value();

  Graph current = base;
  TrafficModelOptions traffic_options;
  traffic_options.independent_directions = directed;
  traffic_options.seed = 3;
  TrafficModel traffic(base, traffic_options);
  for (int step = 0; step < 3; ++step) {
    std::vector<WeightUpdate> batch = traffic.NextBatch();
    ASSERT_FALSE(batch.empty());
    WeightUpdate again = batch.front();
    again.new_forward *= 1.5;
    again.new_backward *= 1.5;
    batch.push_back(again);
    for (const WeightUpdate& update : batch) current.SetWeight(update);

    const DtlpUpdateStats stats = dtlp.ApplyUpdates(batch);
    EXPECT_EQ(stats.updates_applied, batch.size());
    EXPECT_GT(stats.subgraphs_touched, 0u);
    EXPECT_LE(stats.subgraphs_touched, dtlp.NumSubgraphs());
    ExpectMatchesFreshBuild(dtlp, current,
                            "threads " + std::to_string(threads) + " step " +
                                std::to_string(step));
  }
}

TEST(DtlpTest, IncrementalUpdatesMatchFreshBuildUndirected) {
  CheckIncrementalMatchesFreshBuild(/*directed=*/false, /*threads=*/1);
}

TEST(DtlpTest, IncrementalUpdatesMatchFreshBuildDirected) {
  CheckIncrementalMatchesFreshBuild(/*directed=*/true, /*threads=*/1);
}

TEST(DtlpTest, ConcurrentIncrementalUpdatesMatchFreshBuildUndirected) {
  CheckIncrementalMatchesFreshBuild(/*directed=*/false, /*threads=*/4);
}

TEST(DtlpTest, ConcurrentIncrementalUpdatesMatchFreshBuildDirected) {
  CheckIncrementalMatchesFreshBuild(/*directed=*/true, /*threads=*/4);
}

}  // namespace
}  // namespace kspdg
