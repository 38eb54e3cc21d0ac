// Unit tests for src/graph: Graph storage, DIMACS IO, generators, traffic
// model.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "graph/dimacs_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/traffic_model.h"

namespace kspdg {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphTest, AddEdgeBasics) {
  Graph g = Graph::Undirected(3);
  EdgeId e = g.AddEdge(0, 1, 5);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.EdgeU(e), 0u);
  EXPECT_EQ(g.EdgeV(e), 1u);
  EXPECT_EQ(g.OtherEndpoint(e, 0), 1u);
  EXPECT_EQ(g.OtherEndpoint(e, 1), 0u);
  EXPECT_DOUBLE_EQ(g.WeightFrom(e, 0), 5.0);
  EXPECT_DOUBLE_EQ(g.WeightFrom(e, 1), 5.0);
  EXPECT_EQ(g.VfragsFrom(e, 0), 5u);
}

TEST(GraphTest, AdjacencyBothDirections) {
  Graph g = Graph::Undirected(3);
  g.AddEdge(0, 1, 2);
  g.AddEdge(1, 2, 3);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 1u);
}

TEST(GraphTest, SetWeightUndirectedForcesSymmetry) {
  Graph g = Graph::Undirected(2);
  EdgeId e = g.AddEdge(0, 1, 4);
  g.SetWeight({e, 7.5, 9.0});  // backward ignored for undirected
  EXPECT_DOUBLE_EQ(g.WeightFrom(e, 0), 7.5);
  EXPECT_DOUBLE_EQ(g.WeightFrom(e, 1), 7.5);
}

TEST(GraphTest, DirectedWeightsIndependent) {
  Graph g = Graph::Directed(2);
  EdgeId e = g.AddEdge(0, 1, 4, 6);
  EXPECT_DOUBLE_EQ(g.WeightFrom(e, 0), 4.0);
  EXPECT_DOUBLE_EQ(g.WeightFrom(e, 1), 6.0);
  g.SetWeight({e, 1.5, 2.5});
  EXPECT_DOUBLE_EQ(g.WeightFrom(e, 0), 1.5);
  EXPECT_DOUBLE_EQ(g.WeightFrom(e, 1), 2.5);
  EXPECT_EQ(g.VfragsFrom(e, 0), 4u);
  EXPECT_EQ(g.VfragsFrom(e, 1), 6u);
}

TEST(GraphTest, UnitWeights) {
  Graph g = Graph::Undirected(2);
  EdgeId e = g.AddEdge(0, 1, 4);
  g.SetWeight(e, 2.0);
  EXPECT_DOUBLE_EQ(g.UnitWeightFrom(e, 0), 0.5);
}

TEST(GraphTest, FindEdge) {
  Graph g = Graph::Undirected(4);
  EdgeId e = g.AddEdge(1, 3, 2);
  EXPECT_EQ(g.FindEdge(1, 3), e);
  EXPECT_EQ(g.FindEdge(3, 1), e);
  EXPECT_EQ(g.FindEdge(0, 2), kInvalidEdge);
}

TEST(GraphTest, ResetWeights) {
  Graph g = Graph::Undirected(2);
  EdgeId e = g.AddEdge(0, 1, 8);
  g.SetWeight(e, 3.25);
  g.ResetWeights();
  EXPECT_DOUBLE_EQ(g.WeightFrom(e, 0), 8.0);
}

TEST(GraphTest, SnapshotRestore) {
  Graph g = Graph::Undirected(3);
  EdgeId e0 = g.AddEdge(0, 1, 5);
  EdgeId e1 = g.AddEdge(1, 2, 7);
  Graph::WeightVector snap = g.SnapshotWeights(42);
  EXPECT_EQ(snap.version, 42u);
  g.SetWeight(e0, 1.0);
  g.SetWeight(e1, 2.0);
  ASSERT_TRUE(g.RestoreWeights(snap).ok());
  EXPECT_DOUBLE_EQ(g.WeightFrom(e0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g.WeightFrom(e1, 1), 7.0);
}

TEST(GraphTest, SnapshotSizeMismatchRejected) {
  Graph g = Graph::Undirected(2);
  g.AddEdge(0, 1, 1);
  Graph::WeightVector bad;
  EXPECT_FALSE(g.RestoreWeights(bad).ok());
}

TEST(GraphTest, ConnectivityDetection) {
  Graph g = Graph::Undirected(4);
  g.AddEdge(0, 1, 1);
  g.AddEdge(2, 3, 1);
  EXPECT_FALSE(g.IsConnected());
  g.AddEdge(1, 2, 1);
  EXPECT_TRUE(g.IsConnected());
}

TEST(DimacsIoTest, RoundTrip) {
  Graph g = MakeRandomConnected(20, 15, 1, 9, 7);
  std::stringstream ss;
  ASSERT_TRUE(WriteDimacs(g, ss).ok());
  Result<Graph> back = ReadDimacs(ss, /*directed=*/false);
  ASSERT_TRUE(back.ok());
  const Graph& h = back.value();
  EXPECT_EQ(h.NumVertices(), g.NumVertices());
  EXPECT_EQ(h.NumEdges(), g.NumEdges());
  // Edge multiset must match.
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EdgeId he = h.FindEdge(g.EdgeU(e), g.EdgeV(e));
    ASSERT_NE(he, kInvalidEdge);
    EXPECT_DOUBLE_EQ(h.WeightFrom(he, g.EdgeU(e)), g.WeightFrom(e, g.EdgeU(e)));
  }
}

TEST(DimacsIoTest, ParsesHandWrittenFile) {
  std::stringstream ss(
      "c tiny example\n"
      "p sp 3 4\n"
      "a 1 2 10\n"
      "a 2 1 10\n"
      "a 2 3 20\n"
      "a 3 2 20\n");
  Result<Graph> g = ReadDimacs(ss, /*directed=*/false);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().NumVertices(), 3u);
  EXPECT_EQ(g.value().NumEdges(), 2u);
}

TEST(DimacsIoTest, DirectedAsymmetricArcs) {
  std::stringstream ss(
      "p sp 2 2\n"
      "a 1 2 10\n"
      "a 2 1 30\n");
  Result<Graph> g = ReadDimacs(ss, /*directed=*/true);
  ASSERT_TRUE(g.ok());
  const Graph& h = g.value();
  ASSERT_EQ(h.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(h.WeightFrom(0, h.EdgeU(0)), 10.0);
  EXPECT_DOUBLE_EQ(h.WeightFrom(0, h.EdgeV(0)), 30.0);
}

TEST(DimacsIoTest, RejectsMalformedHeader) {
  std::stringstream ss("p xx 3 4\n");
  EXPECT_FALSE(ReadDimacs(ss, false).ok());
}

TEST(DimacsIoTest, RejectsArcBeforeHeader) {
  std::stringstream ss("a 1 2 3\n");
  EXPECT_FALSE(ReadDimacs(ss, false).ok());
}

TEST(DimacsIoTest, RejectsUnknownTag) {
  std::stringstream ss("p sp 2 2\nz 1 2\n");
  EXPECT_FALSE(ReadDimacs(ss, false).ok());
}

TEST(GeneratorsTest, RoadNetworkConnected) {
  RoadNetworkOptions opt;
  opt.rows = 20;
  opt.cols = 25;
  opt.seed = 5;
  Graph g = MakeRoadNetwork(opt);
  EXPECT_EQ(g.NumVertices(), 500u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GeneratorsTest, RoadNetworkWeightRange) {
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.min_weight = 4;
  opt.max_weight = 9;
  Graph g = MakeRoadNetwork(opt);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_GE(g.ForwardVfrags(e), 4u);
    EXPECT_LE(g.ForwardVfrags(e), 9u);
  }
}

TEST(GeneratorsTest, RoadNetworkDeterministicPerSeed) {
  RoadNetworkOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.seed = 77;
  Graph a = MakeRoadNetwork(opt);
  Graph b = MakeRoadNetwork(opt);
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    EXPECT_EQ(a.EdgeU(e), b.EdgeU(e));
    EXPECT_EQ(a.EdgeV(e), b.EdgeV(e));
    EXPECT_EQ(a.ForwardVfrags(e), b.ForwardVfrags(e));
  }
}

TEST(GeneratorsTest, ThinningReducesEdges) {
  RoadNetworkOptions dense;
  dense.rows = 30;
  dense.cols = 30;
  dense.thinning = 0.0;
  RoadNetworkOptions thin = dense;
  thin.thinning = 0.8;
  EXPECT_GT(MakeRoadNetwork(dense).NumEdges(),
            MakeRoadNetwork(thin).NumEdges());
  EXPECT_TRUE(MakeRoadNetwork(thin).IsConnected());
}

TEST(GeneratorsTest, DirectedAsymmetricWeights) {
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.directed = true;
  opt.asymmetric_prob = 1.0;
  Graph g = MakeRoadNetwork(opt);
  bool any_asym = false;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (g.ForwardVfrags(e) != g.BackwardVfrags(e)) any_asym = true;
  }
  EXPECT_TRUE(any_asym);
}

TEST(GeneratorsTest, RandomConnectedIsConnected) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = MakeRandomConnected(40, 30, 1, 10, seed);
    EXPECT_TRUE(g.IsConnected());
    EXPECT_GE(g.NumEdges(), 39u);
  }
}

TEST(GeneratorsTest, PaperFigure3GraphShape) {
  Graph g = MakePaperFigure3Graph();
  EXPECT_EQ(g.NumVertices(), 18u);
  EXPECT_EQ(g.NumEdges(), 25u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(TrafficModelTest, BatchSizeMatchesAlpha) {
  Graph g = MakeRandomConnected(100, 100, 2, 20, 1);
  TrafficModelOptions opt;
  opt.alpha = 0.25;
  TrafficModel model(g, opt);
  std::vector<WeightUpdate> batch = model.NextBatch();
  EXPECT_EQ(batch.size(), static_cast<size_t>(0.25 * g.NumEdges()));
}

TEST(TrafficModelTest, DistinctEdgesWithinBatch) {
  Graph g = MakeRandomConnected(60, 60, 2, 20, 2);
  TrafficModelOptions opt;
  opt.alpha = 0.5;
  TrafficModel model(g, opt);
  std::vector<WeightUpdate> batch = model.NextBatch();
  std::set<EdgeId> seen;
  for (const WeightUpdate& u : batch) EXPECT_TRUE(seen.insert(u.edge).second);
}

TEST(TrafficModelTest, WeightsWithinTauOfInitial) {
  Graph g = MakeRandomConnected(80, 60, 5, 20, 3);
  TrafficModelOptions opt;
  opt.alpha = 1.0;
  opt.tau = 0.3;
  TrafficModel model(g, opt);
  for (int step = 0; step < 5; ++step) {
    for (const WeightUpdate& u : model.NextBatch()) {
      double w0 = static_cast<double>(g.ForwardVfrags(u.edge));
      EXPECT_GE(u.new_forward, 0.7 * w0 - 1e-9);
      EXPECT_LE(u.new_forward, 1.3 * w0 + 1e-9);
      EXPECT_GT(u.new_forward, 0.0);
    }
  }
}

TEST(TrafficModelTest, MirroredDirectionsByDefault) {
  Graph g = MakeRoadNetwork({.rows = 8,
                             .cols = 8,
                             .thinning = 0.2,
                             .diagonal_prob = 0,
                             .min_weight = 2,
                             .max_weight = 9,
                             .directed = true,
                             .asymmetric_prob = 0.0,
                             .seed = 4});
  TrafficModelOptions opt;
  opt.alpha = 1.0;
  TrafficModel model(g, opt);
  for (const WeightUpdate& u : model.NextBatch()) {
    EXPECT_DOUBLE_EQ(u.new_forward, u.new_backward);
  }
}

TEST(TrafficModelTest, IndependentDirectionsWhenRequested) {
  Graph g = MakeRoadNetwork({.rows = 8,
                             .cols = 8,
                             .thinning = 0.2,
                             .diagonal_prob = 0,
                             .min_weight = 2,
                             .max_weight = 9,
                             .directed = true,
                             .asymmetric_prob = 0.0,
                             .seed = 4});
  TrafficModelOptions opt;
  opt.alpha = 1.0;
  opt.independent_directions = true;
  TrafficModel model(g, opt);
  bool any_diff = false;
  for (const WeightUpdate& u : model.NextBatch()) {
    if (u.new_forward != u.new_backward) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TrafficModelTest, StepAppliesToGraph) {
  Graph g = MakeRandomConnected(30, 20, 2, 9, 6);
  TrafficModelOptions opt;
  opt.alpha = 1.0;
  TrafficModel model(g, opt);
  std::vector<WeightUpdate> batch = model.Step(g);
  for (const WeightUpdate& u : batch) {
    EXPECT_DOUBLE_EQ(g.ForwardWeight(u.edge), u.new_forward);
  }
}

}  // namespace
}  // namespace kspdg
